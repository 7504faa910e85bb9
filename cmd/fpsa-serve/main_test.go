package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpsa"
)

func TestParseMode(t *testing.T) {
	for name, want := range map[string]fpsa.ExecMode{
		"reference": fpsa.ModeReference,
		"spiking":   fpsa.ModeSpiking,
		"noisy":     fpsa.ModeSpikingNoisy,
	} {
		if got, err := parseMode(name); err != nil || got != want {
			t.Errorf("parseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// Every declared mode's own spelling parses back to it.
	for _, m := range []fpsa.ExecMode{fpsa.ModeReference, fpsa.ModeSpiking, fpsa.ModeSpikingNoisy} {
		if got, err := parseMode(m.String()); err != nil || got != m {
			t.Errorf("parseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, name := range []string{"", "Spiking", "dense", "bogus"} {
		if _, err := parseMode(name); err == nil {
			t.Errorf("parseMode(%q) accepted", name)
		}
	}
}

// TestStatusMapping: sheds are 429, a draining server 503, a request whose
// context ended before it got an executor 503, an exhausted chip pool 507,
// and anything else is the client's 400 — also when the sentinel arrives
// wrapped.
func TestStatusMapping(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("model %q: %w", "m", err) }
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fpsa.ErrOverloaded, 429},
		{wrap(fpsa.ErrTenantQuota), 429},
		{fpsa.ErrClosed, 503},
		{wrap(fpsa.ErrClosed), 503},
		{context.Canceled, 503},
		{wrap(context.DeadlineExceeded), 503},
		{wrap(fpsa.ErrCapacity), 507},
		{fpsa.ErrInvalidArgument, 400},
		{errors.New("input length 3, want 16"), 400},
	} {
		if got := fleetStatus(tc.err); got != tc.want {
			t.Errorf("fleetStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestDecodeJSON: a body within the bound decodes; malformed JSON is 400;
// a body past the bound is 413 and leaves the request value untouched —
// the server stops reading at the bound instead of buffering the rest.
func TestDecodeJSON(t *testing.T) {
	type request struct {
		Features []float64 `json:"features"`
	}
	oversized := `{"features":[` + strings.Repeat("0,", maxBodyBytes) + `0]}`
	for _, tc := range []struct {
		name, body string
		status     int // 0 = decodes
	}{
		{"valid", `{"features":[0.5,1]}`, 0},
		{"malformed", `{"features":`, http.StatusBadRequest},
		{"oversized", oversized, http.StatusRequestEntityTooLarge},
	} {
		var req request
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/classify", strings.NewReader(tc.body))
		ok := decodeJSON(w, r, &req)
		if ok != (tc.status == 0) {
			t.Errorf("%s: decodeJSON = %t", tc.name, ok)
		}
		if tc.status == 0 {
			if len(req.Features) != 2 {
				t.Errorf("%s: decoded %v", tc.name, req.Features)
			}
			continue
		}
		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, w.Code, tc.status)
		}
		if req.Features != nil {
			t.Errorf("%s: rejected body was decoded into the request (%d features)", tc.name, len(req.Features))
		}
	}
}

// TestRunRejectsBadFlags: a command line or config the server cannot start
// from comes back from run as an error — before any model is trained or
// any port is bound — instead of ending the process.
func TestRunRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	malformed := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(malformed, []byte(`{"models":`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-workers", "4"}, "flag provided but not defined"},
		{"bad duration", []string{"-drain", "x"}, "invalid value"},
		{"missing config", []string{"-fleet", filepath.Join(dir, "absent.json")}, "no such file"},
		{"malformed config", []string{"-fleet", malformed}, "unexpected end"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run(%q) = %v, want an error mentioning %q", tc.name, tc.args, err, tc.want)
		}
	}
}
