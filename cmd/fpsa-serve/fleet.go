package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"

	"fpsa"
)

// defaultFleetConfig is the fleet fpsa-serve builds without -fleet: one
// spiking 16-24-4 MLP on 4 replicas, on the default chip pool with no
// tenants declared.
const defaultFleetConfig = `{"models": [{"name": "mlp-16-24-4", "seed": 7, "layers": [16, 24, 4],
	"epochs": 40, "mode": "spiking", "replicas": 4}]}`

// fleetConfig is the -fleet JSON file: the chip pool, the tenant table,
// and one entry per served model. Zero fields fall back to the fleet
// library's defaults; a key this type does not declare is an error.
type fleetConfig struct {
	// Chips is the simulated chip pool shared by every model (0 = 64).
	Chips int `json:"chips"`
	// Tenants declares the known tenants; requests from any other tenant
	// run at batch class with no quota.
	Tenants []fleetTenantConfig `json:"tenants"`
	// Models is the fleet's initial model set.
	Models []fleetModelConfig `json:"models"`
}

type fleetTenantConfig struct {
	Name string `json:"name"`
	// Class is "gold", "silver" or "batch" (empty = batch).
	Class string `json:"class"`
	// Quota caps the tenant's in-flight requests (0 = unlimited).
	Quota int `json:"quota"`
}

type fleetModelConfig struct {
	Name string `json:"name"`
	// Seed drives the synthetic dataset and training; Layers is the MLP
	// shape (first entry = input dim, last = classes); Epochs the
	// training length (0 = 40).
	Seed   int64 `json:"seed"`
	Layers []int `json:"layers"`
	Epochs int   `json:"epochs"`
	// Replicas is the engine pool's fixed size (0 = 4); QueueDepth is the
	// per-replica admission depth; Mode is the exec mode (empty =
	// spiking); Chips is how many chips each replica's deployment is
	// pipelined across (0 or 1 = a single chip).
	Replicas   int    `json:"replicas"`
	QueueDepth int    `json:"queue_depth"`
	Mode       string `json:"mode"`
	Chips      int    `json:"chips"`
}

// fleetModel is one served model's swap state: everything needed to
// retrain and recompile the same structure on demand.
type fleetModel struct {
	layers []int
	epochs int
	train  fpsa.Dataset
}

// buildFleet decodes a -fleet config, then trains, compiles and registers
// every model in it, returning the fleet with each model's swap state. A
// config no fleet can be built from — an unknown key, no models, an
// unknown class, a negative count, an MLP without input and output dims
// or with a dim below 1, an unknown mode — fails before any model is
// trained. The caller closes the fleet.
func buildFleet(ctx context.Context, raw []byte) (*fpsa.Fleet, map[string]*fleetModel, error) {
	var cfg fleetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, nil, err
	}
	// Unmarshal skips keys fleetConfig does not declare; a strict second
	// pass names the first one.
	strict := json.NewDecoder(bytes.NewReader(raw))
	strict.DisallowUnknownFields()
	if err := strict.Decode(new(fleetConfig)); err != nil {
		return nil, nil, err
	}
	if len(cfg.Models) == 0 {
		return nil, nil, errors.New("no models declared")
	}
	if cfg.Chips < 0 {
		return nil, nil, fmt.Errorf(`"chips" = %d: must be ≥ 0 (0 = 64)`, cfg.Chips)
	}
	for _, mc := range cfg.Models {
		if err := mc.check(); err != nil {
			return nil, nil, fmt.Errorf("model %q: %w", mc.Name, err)
		}
	}
	opts := []fpsa.FleetOption{fpsa.WithFleetChips(cfg.Chips)}
	for _, t := range cfg.Tenants {
		class, err := fpsa.ParseQoSClass(t.Class)
		if err != nil {
			return nil, nil, fmt.Errorf("tenant %q: %w", t.Name, err)
		}
		opts = append(opts, fpsa.WithTenant(t.Name, class, t.Quota))
	}
	f, err := fpsa.NewFleet(opts...)
	if err != nil {
		return nil, nil, err
	}
	models := make(map[string]*fleetModel, len(cfg.Models))
	for _, mc := range cfg.Models {
		m, err := addFleetModel(ctx, f, mc)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("model %q: %w", mc.Name, err)
		}
		models[mc.Name] = m
	}
	return f, models, nil
}

// check rejects a model entry no model can be built from, naming the key.
func (mc fleetModelConfig) check() error {
	if len(mc.Layers) < 2 {
		return errors.New("layers must name at least input and output dims")
	}
	for i, n := range mc.Layers {
		if n < 1 {
			return fmt.Errorf(`"layers"[%d] = %d: every dim must be ≥ 1`, i, n)
		}
	}
	for _, k := range []struct {
		key string
		v   int
	}{{"epochs", mc.Epochs}, {"replicas", mc.Replicas}, {"queue_depth", mc.QueueDepth}, {"chips", mc.Chips}} {
		if k.v < 0 {
			return fmt.Errorf("%q = %d: must be ≥ 0 (0 = default)", k.key, k.v)
		}
	}
	if mc.Mode != "" {
		if _, err := parseMode(mc.Mode); err != nil {
			return err
		}
	}
	return nil
}

// addFleetModel trains one configured MLP, which check has accepted,
// compiles it through the fleet's cache and registers it.
func addFleetModel(ctx context.Context, f *fpsa.Fleet, mc fleetModelConfig) (*fleetModel, error) {
	mode := fpsa.ModeSpiking
	if mc.Mode != "" {
		mode, _ = parseMode(mc.Mode)
	}
	if mc.Epochs == 0 {
		mc.Epochs = 40
	}
	in, classes := mc.Layers[0], mc.Layers[len(mc.Layers)-1]
	train, test := fpsa.SyntheticDataset(mc.Seed, 900, in, classes, 0.08).Split(2.0 / 3)
	net, err := fpsa.TrainMLP(mc.Seed, mc.Layers, train, mc.Epochs)
	if err != nil {
		return nil, err
	}
	log.Printf("model %q: trained MLP %v, float accuracy %.3f", mc.Name, mc.Layers, net.Accuracy(test))
	d, err := fpsa.Compile(ctx, net.Model(), fpsa.WithWeightSource(net.WeightSource()),
		fpsa.WithSeed(mc.Seed), fpsa.WithChips(mc.Chips), fpsa.WithCache(f.Cache()))
	if err != nil {
		return nil, err
	}
	if err := f.AddModel(ctx, mc.Name, d, fpsa.WithModelReplicas(mc.Replicas),
		fpsa.WithModelQueueDepth(mc.QueueDepth), fpsa.WithModelEngine(fpsa.WithMode(mode))); err != nil {
		return nil, err
	}
	return &fleetModel{layers: mc.Layers, epochs: mc.Epochs, train: train}, nil
}

// fleetClassifyRequest is the body of POST /v1/classify: one feature
// vector, or a batch of at most maxBatchItems.
type fleetClassifyRequest struct {
	Model    string      `json:"model"`
	Tenant   string      `json:"tenant"`
	Features []float64   `json:"features"`
	Batch    [][]float64 `json:"batch"`
}

// fleetMux is the server's handler set: /healthz, the /fleetz stats
// endpoint, /v1/classify with tenant-aware admission, and /v1/swap, which
// retrains a model with a caller-supplied seed, recompiles it through the
// fleet's cache and hot-swaps it with zero downtime. models is read-only
// from here on.
func fleetMux(f *fpsa.Fleet, models map[string]*fleetModel) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /fleetz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, f.Stats())
	})
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		var req fleetClassifyRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		switch {
		case len(req.Batch) > maxBatchItems:
			http.Error(w, fmt.Sprintf("batch of %d samples exceeds the limit of %d", len(req.Batch), maxBatchItems),
				http.StatusRequestEntityTooLarge)
		case req.Batch != nil:
			classes, version, err := f.ClassifyBatch(r.Context(), req.Model, req.Tenant, req.Batch)
			if err != nil {
				http.Error(w, err.Error(), fleetStatus(err))
				return
			}
			writeJSON(w, map[string]any{"classes": classes, "version": version})
		case req.Features != nil:
			class, version, err := f.Classify(r.Context(), req.Model, req.Tenant, req.Features)
			if err != nil {
				http.Error(w, err.Error(), fleetStatus(err))
				return
			}
			writeJSON(w, map[string]any{"class": class, "version": version})
		default:
			http.Error(w, `want "features" or "batch"`, http.StatusBadRequest)
		}
	})
	mux.HandleFunc("POST /v1/swap", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Model string `json:"model"`
			Seed  int64  `json:"seed"`
		}
		if !decodeJSON(w, r, &req) {
			return
		}
		m := models[req.Model]
		if m == nil {
			http.Error(w, fmt.Sprintf("unknown model %q", req.Model), http.StatusNotFound)
			return
		}
		net, err := fpsa.TrainMLP(req.Seed, m.layers, m.train, m.epochs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, ev, err := f.CompileAndSwap(r.Context(), req.Model, net.Model(),
			fpsa.WithWeightSource(net.WeightSource()), fpsa.WithSeed(req.Seed))
		if err != nil {
			http.Error(w, err.Error(), fleetStatus(err))
			return
		}
		log.Printf("swapped %q v%d -> v%d in %.1f ms", ev.Model, ev.FromVersion, ev.ToVersion, ev.DurationMS)
		writeJSON(w, ev)
	})
	return mux
}

// fleetStatus maps serving errors onto HTTP: sheds are 429 (retryable), a
// draining server or a request whose context ended while it waited for an
// executor is 503, an exhausted chip pool 507, and anything else — unknown
// model, wrong length, bad values — the client's 400.
func fleetStatus(err error) int {
	switch {
	case errors.Is(err, fpsa.ErrOverloaded), errors.Is(err, fpsa.ErrTenantQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, fpsa.ErrClosed), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, fpsa.ErrCapacity):
		return http.StatusInsufficientStorage
	default:
		return http.StatusBadRequest
	}
}
