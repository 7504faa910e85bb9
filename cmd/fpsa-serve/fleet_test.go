package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
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

// TestFleetMux drives the server's handlers in-process, in the order a
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

// TestFleetClassify drives POST /v1/classify: a vector and a batch
// classify, each stamped with the version that served it; a batch longer
// than maxBatchItems is 413 without reaching the fleet, however few bytes
// it takes; a request whose context has ended is 503, not the client's 400.
func TestFleetClassify(t *testing.T) {
	ctx := context.Background()
	f, models, err := buildFleet(ctx, []byte(testFleetConfig))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mux := fleetMux(f, models)

	vec := "[" + strings.Repeat("0.5,", 15) + "0.5]"
	body := func(field string) string { return `{"model":"mlp-a","tenant":"acme",` + field + `}` }
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name, body string
		ctx        context.Context
		status     int
		reply      string
	}{
		{"vector", body(`"features":` + vec), ctx, http.StatusOK, `"class"`},
		{"batch", body(`"batch":[` + vec + `,` + vec + `]`), ctx, http.StatusOK, `"classes"`},
		{"batch at the limit", body(`"batch":[` + strings.Repeat(vec+",", maxBatchItems-1) + vec + `]`), ctx, http.StatusOK, `"version":1`},
		{"batch over the limit", body(`"batch":[` + strings.Repeat("[],", maxBatchItems) + `[]]`), ctx, http.StatusRequestEntityTooLarge, "exceeds the limit"},
		{"neither", body(`"features":null`), ctx, http.StatusBadRequest, `want "features" or "batch"`},
		{"wrong length", body(`"features":[0.5]`), ctx, http.StatusBadRequest, "input length"},
		{"cancelled vector", body(`"features":` + vec), cancelled, http.StatusServiceUnavailable, "context canceled"},
		{"cancelled batch", body(`"batch":[` + vec + `]`), cancelled, http.StatusServiceUnavailable, "context canceled"},
	} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("POST", "/v1/classify", strings.NewReader(tc.body)).WithContext(tc.ctx))
		if w.Code != tc.status || !strings.Contains(w.Body.String(), tc.reply) {
			t.Errorf("%s: %d %q, want %d with %q", tc.name, w.Code, w.Body.String(), tc.status, tc.reply)
		}
	}
	if st := f.Stats().Models["mlp-a"]; st.Requests != 1+2+maxBatchItems+1+1+1 || st.Errors != 3 {
		t.Errorf("fleet saw %d samples / %d errors, want %d / 3: the over-length batch must not reach it",
			st.Requests, st.Errors, 1+2+maxBatchItems+1+1+1)
	}
}

// TestDefaultFleetPinned: the fleet fpsa-serve builds without -fleet
// answers 256 fixed feature vectors, sent one at a time and as one batch,
// with the labels the single-engine server it replaced gave (seed 7, a
// 16-24-4 MLP trained 40 epochs, spiking, 4 executors, chunks of 8).
func TestDefaultFleetPinned(t *testing.T) {
	const wantDigest = "0d4a54a363bee30e"
	f, models, err := buildFleet(context.Background(), []byte(defaultFleetConfig))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mux := fleetMux(f, models)
	post := func(req map[string]any, reply any) {
		t.Helper()
		req["model"] = "mlp-16-24-4"
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("POST", "/v1/classify", bytes.NewReader(raw)))
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), reply) != nil {
			t.Fatalf("classify: %d %q", w.Code, w.Body.String())
		}
	}
	r := rand.New(rand.NewSource(35))
	vecs := make([][]float64, 256)
	for i := range vecs {
		vecs[i] = make([]float64, 16)
		for j := range vecs[i] {
			vecs[i][j] = r.Float64()
		}
	}
	single := make([]int, len(vecs))
	for i, v := range vecs {
		var reply struct{ Class int }
		post(map[string]any{"features": v}, &reply)
		single[i] = reply.Class
	}
	var batch struct{ Classes []int }
	post(map[string]any{"batch": vecs}, &batch)
	for name, labels := range map[string][]int{"single": single, "batch": batch.Classes} {
		if got := labelDigest(labels); got != wantDigest {
			t.Errorf("%s labels digest %s, want %s", name, got, wantDigest)
		}
	}
	if st := f.Stats().Models["mlp-16-24-4"]; st.Replicas != 4 || st.Version != 1 {
		t.Errorf("default model at %d replicas, version %d; want 4 and 1", st.Replicas, st.Version)
	}
}

// labelDigest is the first 16 hex digits of the SHA-256 of the labels
// written as "l0,l1,…,".
func labelDigest(labels []int) string {
	h := sha256.New()
	for _, l := range labels {
		fmt.Fprintf(h, "%d,", l)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestFleetConfigChips: a model's "chips" key compiles it across that many
// chips, and each of its replicas then occupies that many of the pool's.
func TestFleetConfigChips(t *testing.T) {
	f, _, err := buildFleet(context.Background(), []byte(`{"chips": 8, "models": [{"name": "m", "seed": 3,
		"layers": [16, 8, 8, 4], "epochs": 2, "mode": "reference", "replicas": 2, "chips": 2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if st := f.Stats(); st.ChipsUsed != 2*2 {
		t.Errorf("2 replicas of a 2-chip model hold %d chips, want 4", st.ChipsUsed)
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
		{"unknown key", `{"models":[{"name":"m","layers":[16,4],"replica":2}]}`, `unknown field "replica"`},
		{"zero dim", `{"models":[{"name":"m","layers":[16,0]}]}`, `model "m": "layers"[1] = 0`},
		{"negative dim", `{"models":[{"name":"m","layers":[16,-4]}]}`, `model "m": "layers"[1] = -4`},
		{"negative chips", `{"chips":-1,"models":[{"name":"m","layers":[16,4]}]}`, `"chips" = -1`},
		{"negative replicas", `{"models":[{"name":"m","layers":[16,4],"replicas":-2}]}`, `model "m": "replicas" = -2`},
		{"negative queue depth", `{"models":[{"name":"m","layers":[16,4],"queue_depth":-1}]}`, `model "m": "queue_depth" = -1`},
		{"negative epochs", `{"models":[{"name":"m","layers":[16,4],"epochs":-5}]}`, `model "m": "epochs" = -5`},
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
