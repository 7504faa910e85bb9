// Package fpsa is golden input standing in for the public root package:
// every error it returns must wrap an Err* sentinel.
package fpsa

import (
	"errors"
	"fmt"
)

// ErrCapacity is a sentinel; package-level declarations are where the
// taxonomy lives, so errors.New is fine here.
var ErrCapacity = errors.New("fpsa: capacity")

func wrapped(n int) error {
	return fmt.Errorf("%w: need %d crossbars", ErrCapacity, n)
}

func flattened(err error) error {
	return fmt.Errorf("compile: %v", err) // want `fmt.Errorf formats an error argument without %w`
}

func sentinelFree(n int) error {
	return fmt.Errorf("need %d crossbars", n) // want `sentinel-free error crosses the public fpsa boundary`
}

func minted() error {
	return errors.New("ad hoc") // want `errors.New inside the public fpsa package mints an error outside the taxonomy`
}

func dynamic(format string, err error) error {
	return fmt.Errorf(format, err) // want `dynamic fmt.Errorf format in the public fpsa package`
}
