package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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
// wrapped. One map serves both modes; an engine returns only the 503 and
// 400 rows.
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

// TestClassifyHandler drives POST /v1/classify against a real engine: a
// vector and a batch classify; a batch longer than maxBatchItems is 413
// without reaching the engine, however few bytes it takes; a request whose
// context has ended is 503, not the client's 400.
func TestClassifyHandler(t *testing.T) {
	ctx := context.Background()
	train, _ := fpsa.SyntheticDataset(7, 120, 16, 4, 0.08).Split(2.0 / 3)
	net, err := fpsa.TrainMLP(7, []int{16, 8, 4}, train, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fpsa.Compile(ctx, net.Model(), fpsa.WithWeightSource(net.WeightSource()))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := d.NewEngine(ctx, fpsa.WithMode(fpsa.ModeReference))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := classifyHandler(eng)

	vec := "[" + strings.Repeat("0.5,", 15) + "0.5]"
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name, body string
		ctx        context.Context
		status     int
		reply      string
	}{
		{"vector", `{"features":` + vec + `}`, ctx, http.StatusOK, `"class"`},
		{"batch", `{"batch":[` + vec + `,` + vec + `]}`, ctx, http.StatusOK, `"classes"`},
		{"batch at the limit", `{"batch":[` + strings.Repeat(vec+",", maxBatchItems-1) + vec + `]}`, ctx, http.StatusOK, `"classes"`},
		{"batch over the limit", `{"batch":[` + strings.Repeat("[],", maxBatchItems) + `[]]}`, ctx, http.StatusRequestEntityTooLarge, "exceeds the limit"},
		{"wrong length", `{"features":[0.5]}`, ctx, http.StatusBadRequest, "input length"},
		{"cancelled vector", `{"features":` + vec + `}`, cancelled, http.StatusServiceUnavailable, "context canceled"},
		{"cancelled batch", `{"batch":[` + vec + `]}`, cancelled, http.StatusServiceUnavailable, "context canceled"},
	} {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/classify", strings.NewReader(tc.body)).WithContext(tc.ctx)
		h(w, r)
		if w.Code != tc.status || !strings.Contains(w.Body.String(), tc.reply) {
			t.Errorf("%s: %d %q, want %d with %q", tc.name, w.Code, w.Body.String(), tc.status, tc.reply)
		}
	}
	if st := eng.Stats(); st.Requests != 1+2+maxBatchItems+1 || st.Shed != 2 {
		t.Errorf("engine saw %d samples / %d shed, want %d / 2: the over-length batch must not reach it", st.Requests, st.Shed, 1+2+maxBatchItems+1)
	}
}
