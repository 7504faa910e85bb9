// Command fpsa-serve trains small networks, deploys them onto simulated
// FPSA processing elements, and serves classifications over HTTP from a
// fleet: one chip pool holding every model's bitstream, with per-tenant
// admission and zero-downtime hot-swap. Without -fleet it serves a
// built-in one-model fleet: a spiking 16-24-4 MLP named "mlp-16-24-4" on
// 4 replicas.
//
// Usage:
//
//	fpsa-serve -addr :8080             # the built-in one-model fleet
//	fpsa-serve -fleet fleet.json       # the models and tenants of a config file
//
// Endpoints:
//
//	GET  /healthz     liveness probe
//	GET  /fleetz      fleet statistics: per-model QPS, backlog,
//	                  replica count, shed counts, swap history (JSON)
//	POST /v1/classify {"model":"...","tenant":"...","features":[...]}
//	                  or {"model":"...","tenant":"...","batch":[[...],...]}
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

// errUsage marks an error the flag set has already reported on stderr.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:])
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "fpsa-serve:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args (without the program name),
// builds the fleet — from the -fleet file, else from defaultFleetConfig —
// and serves it until SIGINT/SIGTERM (see serveUntilSignal). A bad flag or
// config comes back as an error instead of ending the process.
func run(args []string) error {
	fs := flag.NewFlagSet("fpsa-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cfgPath := fs.String("fleet", "", "serve the models and tenants of this JSON config file (default: one spiking 16-24-4 MLP named mlp-16-24-4)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain deadline on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	raw, from := []byte(defaultFleetConfig), "built-in default"
	if *cfgPath != "" {
		var err error
		if raw, err = os.ReadFile(*cfgPath); err != nil {
			return err
		}
		from = *cfgPath
	}
	f, models, err := buildFleet(context.Background(), raw)
	if err != nil {
		return fmt.Errorf("fleet config %s: %w", from, err)
	}
	defer f.Close()
	log.Printf("fleet serving %d models on %s", len(models), *addr)
	return serveUntilSignal(&http.Server{Addr: *addr, Handler: fleetMux(f, models)}, *drain, f.Close)
}

// serveUntilSignal runs srv until SIGINT/SIGTERM, then shuts down in
// order: stop admitting and let in-flight requests finish within the drain
// deadline, then release what served them with closeFn. It returns nil
// after a clean drain, so the process exits 0.
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
