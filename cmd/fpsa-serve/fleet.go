package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"fpsa"
)

// fleetConfig is the -fleet JSON file: the chip pool, the tenant table,
// and one entry per served model. Zero fields fall back to the fleet
// library's defaults.
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
	// Replicas / MinReplicas / MaxReplicas bound the autoscaled engine
	// pool; QueueDepth is the per-replica admission depth; Mode is the
	// exec mode (empty = spiking).
	Replicas    int    `json:"replicas"`
	MinReplicas int    `json:"min_replicas"`
	MaxReplicas int    `json:"max_replicas"`
	QueueDepth  int    `json:"queue_depth"`
	Mode        string `json:"mode"`
}

// fleetModel is one served model's swap state: everything needed to
// retrain and recompile the same structure on demand.
type fleetModel struct {
	layers []int
	epochs int
	train  fpsa.Dataset
	mode   fpsa.ExecMode
}

// runFleet serves a multi-model fleet described by the -fleet config
// file: per-model autoscaled replica pools, tenant-aware admission, a
// /fleetz stats endpoint, and a /v1/swap endpoint that retrains and
// hot-swaps a model with zero downtime. On SIGINT/SIGTERM it stops
// admitting, drains in-flight work within the drain deadline, and
// returns nil so the process exits 0.
func runFleet(ctx context.Context, addr, cfgPath string, drain time.Duration) error {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg fleetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("parsing fleet config %s: %w", cfgPath, err)
	}
	if len(cfg.Models) == 0 {
		return fmt.Errorf("fleet config %s declares no models", cfgPath)
	}

	opts := []fpsa.FleetOption{fpsa.WithFleetCache(fpsa.NewCompileCache(0))}
	if cfg.Chips > 0 {
		opts = append(opts, fpsa.WithFleetChips(cfg.Chips))
	}
	for _, t := range cfg.Tenants {
		class, err := fpsa.ParseQoSClass(t.Class)
		if err != nil {
			return err
		}
		opts = append(opts, fpsa.WithTenant(t.Name, class, t.Quota))
	}
	f, err := fpsa.NewFleet(opts...)
	if err != nil {
		return err
	}
	defer f.Close()

	// models guards the swap state; swaps retrain with a caller-supplied
	// seed and recompile through the fleet's cache.
	var mu sync.Mutex
	models := make(map[string]*fleetModel, len(cfg.Models))
	for _, mc := range cfg.Models {
		if len(mc.Layers) < 2 {
			return fmt.Errorf("model %q: layers must name at least input and output dims", mc.Name)
		}
		mode := fpsa.ModeSpiking
		if mc.Mode != "" {
			if mode, err = parseMode(mc.Mode); err != nil {
				return fmt.Errorf("model %q: %w", mc.Name, err)
			}
		}
		if mc.Epochs <= 0 {
			mc.Epochs = 40
		}
		in, classes := mc.Layers[0], mc.Layers[len(mc.Layers)-1]
		train, test := fpsa.SyntheticDataset(mc.Seed, 900, in, classes, 0.08).Split(2.0 / 3)
		net, err := fpsa.TrainMLP(mc.Seed, mc.Layers, train, mc.Epochs)
		if err != nil {
			return fmt.Errorf("model %q: %w", mc.Name, err)
		}
		log.Printf("model %q: trained MLP %v, float accuracy %.3f", mc.Name, mc.Layers, net.Accuracy(test))
		d, err := fpsa.Compile(ctx, net.Model(),
			fpsa.WithWeightSource(net.WeightSource()), fpsa.WithSeed(mc.Seed), fpsa.WithCache(f.Cache()))
		if err != nil {
			return fmt.Errorf("model %q: %w", mc.Name, err)
		}
		var modelOpts []fpsa.FleetModelOption
		if mc.Replicas > 0 {
			modelOpts = append(modelOpts, fpsa.WithModelReplicas(mc.Replicas))
		}
		if mc.MinReplicas > 0 || mc.MaxReplicas > 0 {
			modelOpts = append(modelOpts, fpsa.WithModelReplicaRange(mc.MinReplicas, mc.MaxReplicas))
		}
		if mc.QueueDepth > 0 {
			modelOpts = append(modelOpts, fpsa.WithModelQueueDepth(mc.QueueDepth))
		}
		modelOpts = append(modelOpts, fpsa.WithModelEngine(fpsa.WithMode(mode)))
		if err := f.AddModel(ctx, mc.Name, d, modelOpts...); err != nil {
			return fmt.Errorf("model %q: %w", mc.Name, err)
		}
		models[mc.Name] = &fleetModel{layers: mc.Layers, epochs: mc.Epochs, train: train, mode: mode}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /fleetz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, f.Stats())
	})
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Model    string    `json:"model"`
			Tenant   string    `json:"tenant"`
			Features []float64 `json:"features"`
		}
		if !decodeJSON(w, r, &req) {
			return
		}
		if req.Features == nil {
			http.Error(w, `want "features"`, http.StatusBadRequest)
			return
		}
		class, version, err := f.Classify(r.Context(), req.Model, req.Tenant, req.Features)
		if err != nil {
			http.Error(w, err.Error(), fleetStatus(err))
			return
		}
		writeJSON(w, map[string]any{"class": class, "version": version})
	})
	mux.HandleFunc("POST /v1/swap", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Model string `json:"model"`
			Seed  int64  `json:"seed"`
		}
		if !decodeJSON(w, r, &req) {
			return
		}
		mu.Lock()
		m := models[req.Model]
		mu.Unlock()
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

	srv := &http.Server{Addr: addr, Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// Stop admitting first, then drain in-flight work to the deadline.
		log.Printf("shutting down fleet (drain deadline %v)", drain)
		sctx, cancel := context.WithTimeout(ctx, drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Printf("fleet close: %v", err)
		}
	}()
	log.Printf("fleet serving %d models on %s", len(models), addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	<-done
	return nil
}

// fleetStatus maps fleet errors onto HTTP: sheds are 429 (retryable),
// draining or an ended request context is 503, unknown models and bad
// input are the client's fault.
func fleetStatus(err error) int {
	switch {
	case errors.Is(err, fpsa.ErrOverloaded), errors.Is(err, fpsa.ErrTenantQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, fpsa.ErrClosed), isContextErr(err):
		return http.StatusServiceUnavailable
	case errors.Is(err, fpsa.ErrCapacity):
		return http.StatusInsufficientStorage
	default:
		return http.StatusBadRequest
	}
}
