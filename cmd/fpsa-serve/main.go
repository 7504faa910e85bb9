// Command fpsa-serve trains a small network, deploys it onto simulated
// FPSA processing elements, and serves classifications over HTTP through
// the concurrent inference engine.
//
// Usage:
//
//	fpsa-serve -addr :8080 -workers 4 -batch 8 -mode spiking
//	fpsa-serve -chips 2                # sharded: pipelined across 2 chips
//	fpsa-serve -fleet fleet.json       # multi-model, multi-tenant fleet
//
// Endpoints:
//
//	GET  /healthz     liveness probe
//	GET  /v1/model    deployed-model metadata
//	GET  /v1/stats    engine serving statistics (JSON)
//	POST /v1/classify {"features":[...]} or {"batch":[[...],...]}
//
// In fleet mode (-fleet) the server instead exposes:
//
//	GET  /healthz     liveness probe
//	GET  /fleetz      fleet statistics: per-model QPS, backlog,
//	                  replica count, shed counts, swap history (JSON)
//	POST /v1/classify {"model":"...","tenant":"...","features":[...]}
//	POST /v1/swap     {"model":"...","seed":N} — retrain and hot-swap
//	                  the model with zero downtime
//
// On SIGINT/SIGTERM the server stops admitting requests, drains
// in-flight work within the -drain deadline, and exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fpsa"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 7, "data/train/programming seed")
	workers := flag.Int("workers", 4, "programmed executors a request can borrow")
	batch := flag.Int("batch", 8, "chunk size a batch request is cut into, one kernel pass each")
	modeName := flag.String("mode", "spiking", "exec mode: reference, spiking, or noisy")
	epochs := flag.Int("epochs", 40, "training epochs")
	chips := flag.Int("chips", 1, "serve as a sharded deployment pipelined across this many chips (1 = single chip)")
	fleetCfg := flag.String("fleet", "", "serve a multi-model fleet from this JSON config file instead of a single engine")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline on SIGINT/SIGTERM")
	flag.Parse()

	if *fleetCfg != "" {
		if err := runFleet(context.Background(), *addr, *fleetCfg, *drain); err != nil {
			fail(err)
		}
		return
	}

	mode, err := parseMode(*modeName)
	if err != nil {
		fail(err)
	}

	ctx := context.Background()
	ds := fpsa.SyntheticDataset(*seed, 900, 16, 4, 0.08)
	train, test := ds.Split(2.0 / 3)
	net, err := fpsa.TrainMLP(*seed, []int{16, 24, 4}, train, *epochs)
	if err != nil {
		fail(err)
	}
	log.Printf("trained MLP 16-24-4: float accuracy %.3f", net.Accuracy(test))

	// One compile is the single source of truth for the whole serving
	// stack: the chip partition, seed and artifact cache declared here
	// flow into every net and engine derived from the deployment.
	d, err := fpsa.Compile(ctx, net.Model(),
		fpsa.WithWeightSource(net.WeightSource()),
		fpsa.WithSeed(*seed),
		fpsa.WithChips(*chips),
		fpsa.WithCache(fpsa.NewCompileCache(0)),
	)
	if err != nil {
		fail(err)
	}
	sn, err := d.NewNet(nil)
	if err != nil {
		fail(err)
	}
	log.Printf("deployed: %d core-op stages, sampling window %d, %d chips",
		sn.Stages(), sn.Window(), d.Chips())

	eng, err := d.NewEngine(ctx,
		fpsa.WithWorkers(*workers),
		fpsa.WithMaxBatch(*batch),
		fpsa.WithMode(mode),
	)
	if err != nil {
		fail(err)
	}
	if eng.Chips() > 1 {
		log.Printf("sharded deployment: pipelined across %d chips", eng.Chips())
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/model", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"model":   "mlp-16-24-4",
			"classes": 4,
			"inputs":  16,
			"window":  sn.Window(),
			"stages":  sn.Stages(),
			"mode":    *modeName,
			"chips":   eng.Chips(),
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, eng.Stats())
	})
	mux.HandleFunc("POST /v1/classify", classifyHandler(eng))

	// The realized shape, not the flags: -workers 0 and -batch 0 mean the
	// engine's defaults.
	shape := eng.Stats()
	log.Printf("serving on %s (%d executors, batch %d)", *addr, shape.Workers, shape.MaxBatch)
	err = serveUntilSignal(&http.Server{Addr: *addr, Handler: mux}, *drain, func() error {
		log.Printf("final stats: %s", eng.Stats())
		return eng.Close()
	})
	if err != nil {
		fail(err)
	}
}

// serveUntilSignal runs srv until SIGINT/SIGTERM, then shuts down in the
// one order both serving modes want: stop admitting and let in-flight
// requests finish within the drain deadline, then release what served
// them with closeFn. It returns nil after a clean drain, so the process
// exits 0.
func serveUntilSignal(srv *http.Server, drain time.Duration, closeFn func() error) error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("shutting down (drain deadline %v)", drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if err := closeFn(); err != nil {
			log.Printf("close: %v", err)
		}
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return err
	}
	<-done
	return nil
}

// classifyHandler serves POST /v1/classify on a single engine: one
// feature vector, or a batch of at most maxBatchItems.
func classifyHandler(eng *fpsa.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Features []float64   `json:"features"`
			Batch    [][]float64 `json:"batch"`
		}
		if !decodeJSON(w, r, &req) {
			return
		}
		switch {
		case len(req.Batch) > maxBatchItems:
			http.Error(w, fmt.Sprintf("batch of %d samples exceeds the limit of %d", len(req.Batch), maxBatchItems),
				http.StatusRequestEntityTooLarge)
		case req.Batch != nil:
			labels, err := eng.ClassifyBatch(r.Context(), req.Batch)
			if err != nil {
				http.Error(w, err.Error(), fleetStatus(err))
				return
			}
			writeJSON(w, map[string]any{"classes": labels})
		case req.Features != nil:
			label, err := eng.Classify(r.Context(), req.Features)
			if err != nil {
				http.Error(w, err.Error(), fleetStatus(err))
				return
			}
			writeJSON(w, map[string]any{"class": label})
		default:
			http.Error(w, `want "features" or "batch"`, http.StatusBadRequest)
		}
	}
}

// isContextErr reports a request that ended with its context — the client
// went away or a deadline passed — rather than with a verdict on its input.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// parseMode returns the declared mode whose String is name: the mode names
// are spelled once, in internal/synth.
func parseMode(name string) (fpsa.ExecMode, error) {
	for _, m := range []fpsa.ExecMode{fpsa.ModeReference, fpsa.ModeSpiking, fpsa.ModeSpikingNoisy} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want reference, spiking, or noisy)", name)
}

// maxBodyBytes bounds a POST body: the largest legitimate request is a
// classify batch of a few hundred 16-feature vectors, far below it.
// maxBatchItems bounds the batch by length as well: a batch request holds
// executors until its last chunk has run, and 1 MiB of short vectors is
// tens of thousands of samples.
const (
	maxBodyBytes  = 1 << 20
	maxBatchItems = 1024
)

// decodeJSON decodes a POST body of at most maxBodyBytes into v. On
// failure it writes the response itself — 413 for an oversized body, 400
// for anything else — and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), status)
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode: %v", err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fpsa-serve:", err)
	os.Exit(1)
}
