package fpsa

import (
	"errors"
	"fmt"

	"fpsa/internal/fleet"
	"fpsa/internal/serve"
	"fpsa/internal/synth"
)

// The package's error taxonomy. Every sentinel is matched with errors.Is;
// errors returned by Compile, PlaceAndRoute, Bitstream, Deployment.NewNet,
// Deployment.NewEngine and the Engine methods wrap the sentinel that names
// their failure class, so callers branch on the class without parsing
// message strings or importing internal packages.
var (
	// ErrModelInvalid marks a model the stack cannot compile or deploy: a
	// zero Model, a graph the synthesizer rejects, or a functional deploy
	// without weights.
	ErrModelInvalid = errors.New("fpsa: invalid model")

	// ErrCapacity marks a deployment whose resource request cannot be
	// satisfied: a model whose PE demand exceeds one chip's
	// ChipCapacity, a partition that cannot satisfy the per-chip bound
	// within WithChips, or a duplication degree beyond what the model's
	// reuse can sustain.
	ErrCapacity = errors.New("fpsa: deployment exceeds capacity")

	// ErrUnroutable marks a placement the router cannot complete: some
	// net's source cannot reach a sink on the routing fabric.
	ErrUnroutable = errors.New("fpsa: netlist unroutable")

	// ErrChipConflict marks a replacement Deployment compiled across a
	// different chip count than the fleet model it would replace (see
	// Fleet.Swap): a model keeps its chip footprint across hot-swaps.
	ErrChipConflict = errors.New("fpsa: engine chip count conflicts with compiled deployment")

	// ErrClosed is returned by Engine methods once Close has begun. It
	// wraps the internal serving sentinel, so errors.Is matches it on
	// every error the engine surfaces after shutdown.
	ErrClosed = fmt.Errorf("fpsa: engine closed: %w", serve.ErrClosed)

	// ErrOverloaded sheds a fleet request whose QoS class is over the
	// model's class-weighted admission limit; back off and retry. It
	// wraps the internal fleet sentinel, so errors.Is matches it on
	// every overload shed the fleet surfaces.
	ErrOverloaded = fmt.Errorf("fpsa: fleet overloaded: %w", fleet.ErrOverloaded)

	// ErrTenantQuota sheds a fleet request whose tenant is at its
	// in-flight quota (see WithTenant); the tenant must finish requests
	// before submitting more.
	ErrTenantQuota = fmt.Errorf("fpsa: tenant quota exceeded: %w", fleet.ErrTenantQuota)

	// ErrInvalidArgument marks a request the API cannot interpret: an
	// unknown exec mode, shard policy, weight representation, or
	// experiment id, an unknown fleet model, or a feature vector whose
	// length is not the model's input size (SpikingNet, Engine and Fleet
	// alike).
	ErrInvalidArgument = errors.New("fpsa: invalid argument")

	// ErrNotPlaced marks a Bitstream request on a deployment that has
	// not completed PlaceAndRoute; run PlaceAndRoute (or Compile, which
	// runs it) first.
	ErrNotPlaced = errors.New("fpsa: deployment not placed-and-routed")
)

// liftErr lifts the serving stack's internal sentinels into the package
// taxonomy, for Engine and Fleet alike: overload and quota sheds surface
// as their public sentinels, a closed engine or fleet as ErrClosed (which
// itself wraps the internal sentinel), an unknown fleet model or a
// wrong-length feature vector as ErrInvalidArgument, and chip exhaustion
// as ErrCapacity, so callers errors.Is against the fpsa sentinels without
// importing internals. A serve error never matches a fleet sentinel, so
// one switch serves both layers.
func liftErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fleet.ErrOverloaded):
		return ErrOverloaded
	case errors.Is(err, fleet.ErrTenantQuota):
		return ErrTenantQuota
	case errors.Is(err, serve.ErrClosed):
		return ErrClosed
	case errors.Is(err, fleet.ErrUnknownModel), errors.Is(err, synth.ErrInputLength):
		return fmt.Errorf("%w: %w", ErrInvalidArgument, err)
	case errors.Is(err, fleet.ErrNoChips):
		return fmt.Errorf("%w: %w", ErrCapacity, err)
	}
	return err
}
