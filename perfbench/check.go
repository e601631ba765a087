package main

import (
	"fmt"
	"slices"

	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/experiment"
)

// reference runs cell c through experiment.Run — the code path every
// figure and sweep of the repository uses — and reduces its result to
// what compare checks. sites is the cell's topology size.
func reference(c cell) (ref *result, sites int, err error) {
	top, err := c.topology()
	if err != nil {
		return nil, 0, fmt.Errorf("reference %s: topology: %w", c.name, err)
	}
	r, err := experiment.Run(c.scenario(top))
	if err != nil {
		return nil, 0, fmt.Errorf("reference %s: %w", c.name, err)
	}
	return &result{
		ticks:        r.Ticks,
		generated:    r.Generated,
		delivered:    r.Delivered,
		dropped:      r.Dropped,
		lost:         r.Lost,
		restored:     r.Restored,
		processedPct: r.ProcessedPct,
		initialTasks: r.InitialTasks,
		samples:      r.Samples,
		delay:        r.Delay,
		ratio:        r.Ratio,
		parallelism:  r.Parallelism,
		actions:      r.Actions,
		violations:   chaos.Check(*r.Final, experiment.ChaosRecoveryBound),
	}, top.N(), nil
}

// settledInvariants are the chaos invariants that judge a settled run
// end: they hold only when the run ends after its dynamics have stopped
// long enough for launched adaptations to finish. The other invariants
// (conservation, all-sites-healed, recovery-bound) hold at every instant.
var settledInvariants = map[string]bool{
	"no-suspended-stages":      true,
	"no-pending-adaptation":    true,
	"no-orphan-transfers":      true,
	"no-quarantine-after-heal": true,
	"no-unacked-commands":      true,
}

// judged returns the violations that count against a cell.
func judged(vs []chaos.Violation, settles bool) []chaos.Violation {
	if settles {
		return vs
	}
	var out []chaos.Violation
	for _, v := range vs {
		if !settledInvariants[v.Invariant] {
			out = append(out, v)
		}
	}
	return out
}

// compare checks a driver result against the reference result of the
// same cell, then the run-end invariants that apply to it.
func compare(got, want *result, settles bool) error {
	if err := match(got, want); err != nil {
		return err
	}
	if vs := judged(got.violations, settles); len(vs) > 0 {
		return fmt.Errorf("invariants violated: %v", vs)
	}
	return nil
}

// match checks that a driver result equals the reference result of the
// same cell. Every value is a pure function of the cell's inputs, so they
// must be identical.
func match(got, want *result) error {
	mismatch := func(what string, g, w any) error {
		return fmt.Errorf("%s: driver %v, experiment.Run %v", what, g, w)
	}
	switch {
	case got.ticks != want.ticks:
		return mismatch("ticks", got.ticks, want.ticks)
	case got.generated != want.generated:
		return mismatch("generated", got.generated, want.generated)
	case got.delivered != want.delivered:
		return mismatch("delivered", got.delivered, want.delivered)
	case got.dropped != want.dropped:
		return mismatch("dropped", got.dropped, want.dropped)
	case got.lost != want.lost || got.restored != want.restored:
		return mismatch("lost/restored", [2]float64{got.lost, got.restored}, [2]float64{want.lost, want.restored})
	case got.processedPct != want.processedPct:
		return mismatch("processed %", got.processedPct, want.processedPct)
	case got.initialTasks != want.initialTasks:
		return mismatch("initial tasks", got.initialTasks, want.initialTasks)
	case len(got.samples) != len(want.samples):
		return mismatch("sample count", len(got.samples), len(want.samples))
	case !slices.Equal(got.samples, want.samples):
		return fmt.Errorf("delay samples differ")
	case !slices.Equal(got.delay, want.delay) || !slices.Equal(got.ratio, want.ratio) || !slices.Equal(got.parallelism, want.parallelism):
		return fmt.Errorf("delay, ratio or parallelism series differ")
	case !slices.Equal(got.actions, want.actions):
		return mismatch("actions", len(got.actions), len(want.actions))
	case !slices.Equal(got.violations, want.violations):
		return mismatch("invariant violations", got.violations, want.violations)
	}
	return nil
}
