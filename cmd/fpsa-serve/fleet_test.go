package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fpsa"
)

// testFleetConfig is one small reference-mode model and one gold tenant:
// quick to train, and version stamps are all the tests read from it.
const testFleetConfig = `{
	"chips": 8,
	"tenants": [{"name": "acme", "class": "gold"}],
	"models": [{"name": "mlp-a", "seed": 3, "layers": [16, 8, 4], "epochs": 2, "mode": "reference"}]
}`

// TestFleetMux drives fleet mode's handlers in-process, in the order a
// deployment lives: classify, swap, classify on the new version, stats,
// drain. Sheds (429) are asserted on fleetStatus in TestStatusMapping, not
// by racing a parked request over HTTP.
func TestFleetMux(t *testing.T) {
	f, models, err := buildFleet(context.Background(), []byte(testFleetConfig))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mux := fleetMux(f, models)
	do := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}
	vec := "[" + strings.Repeat("0.5,", 15) + "0.5]"
	classify := `{"model":"mlp-a","tenant":"acme","features":` + vec + `}`
	// classifyVersion classifies once and returns the version that served it.
	classifyVersion := func() int {
		t.Helper()
		w := do("POST", "/v1/classify", classify)
		var reply struct {
			Class   *int `json:"class"`
			Version int  `json:"version"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &reply); w.Code != http.StatusOK || err != nil || reply.Class == nil {
			t.Fatalf("classify: %d %q (%v), want 200 with class and version", w.Code, w.Body.String(), err)
		}
		return reply.Version
	}

	if v := classifyVersion(); v != 1 {
		t.Errorf("first classify served by version %d, want 1", v)
	}
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"unknown model", "/v1/classify", `{"model":"ghost","features":` + vec + `}`, http.StatusBadRequest},
		{"no features", "/v1/classify", `{"model":"mlp-a"}`, http.StatusBadRequest},
		{"wrong length", "/v1/classify", `{"model":"mlp-a","features":[0.5]}`, http.StatusBadRequest},
		{"malformed", "/v1/classify", `{"model":`, http.StatusBadRequest},
		{"oversized", "/v1/classify", `{"model":"mlp-a","features":[` + strings.Repeat("0,", maxBodyBytes) + `0]}`, http.StatusRequestEntityTooLarge},
		{"swap of unknown model", "/v1/swap", `{"model":"ghost","seed":5}`, http.StatusNotFound},
		{"swap", "/v1/swap", `{"model":"mlp-a","seed":5}`, http.StatusOK},
	} {
		if w := do("POST", tc.path, tc.body); w.Code != tc.status {
			t.Errorf("%s: %d %q, want %d", tc.name, w.Code, w.Body.String(), tc.status)
		}
	}
	if v := classifyVersion(); v != 2 {
		t.Errorf("classify after the swap served by version %d, want 2", v)
	}

	var st fpsa.FleetStats
	if w := do("GET", "/fleetz", ""); w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &st) != nil {
		t.Fatalf("/fleetz: %d %q", w.Code, w.Body.String())
	}
	if m := st.Models["mlp-a"]; st.Chips != 8 || m.Requests != 3 || m.Errors != 1 || m.Version != 2 || len(st.Swaps) != 1 || st.Swaps[0].ToVersion != 2 {
		t.Errorf("/fleetz decoded to %+v, want 8 chips, mlp-a at version 2 with 3 requests (the wrong-length one an error), one swap to version 2", st)
	}

	f.Close()
	if w := do("POST", "/v1/classify", classify); w.Code != http.StatusServiceUnavailable {
		t.Errorf("classify after Close: %d %q, want 503", w.Code, w.Body.String())
	}
}

// TestBuildFleetRejectsBadConfig: a config no fleet can be built from is
// an error naming what is wrong, before any model is trained.
func TestBuildFleetRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name, cfg, want string
	}{
		{"malformed", `{"models":`, "unexpected end"},
		{"no models", `{"chips": 4}`, "no models"},
		{"short layers", `{"models":[{"name":"m","layers":[16]}]}`, `model "m": layers`},
		{"unknown class", `{"tenants":[{"name":"t","class":"platinum"}],"models":[{"name":"m","layers":[16,4]}]}`, `tenant "t"`},
		{"unknown mode", `{"models":[{"name":"m","layers":[16,4],"mode":"dense"}]}`, `model "m": unknown mode`},
	} {
		f, _, err := buildFleet(context.Background(), []byte(tc.cfg))
		if err == nil {
			f.Close()
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeClassify: whatever bytes arrive as a classify body, decodeJSON
// never panics, and it either decodes them (writing nothing) or answers 400
// or 413 itself.
func FuzzDecodeClassify(f *testing.F) {
	f.Add([]byte(`{"model":"mlp-a","tenant":"acme","features":[0.5,1]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req fleetClassifyRequest
		w := httptest.NewRecorder()
		ok := decodeJSON(w, httptest.NewRequest("POST", "/v1/classify", bytes.NewReader(body)), &req)
		switch status := w.Code; {
		case ok && w.Body.Len() == 0:
		case !ok && (status == http.StatusBadRequest || status == http.StatusRequestEntityTooLarge):
		default:
			t.Errorf("decodeJSON = %t with status %d and %d bytes written", ok, status, w.Body.Len())
		}
	})
}
