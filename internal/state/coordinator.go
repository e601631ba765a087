package state

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Target is one stateful task the coordinator checkpoints.
type Target struct {
	Job      string
	Operator string
	Task     int
	// Site is where the task currently runs; snapshots are stored there
	// (localized checkpointing, §5).
	Site topology.SiteID
	// Replicas lists additional sites the snapshot is copied to in the
	// same round. Localized checkpointing alone cannot survive the loss
	// of the task's own site — a replica on an independent site is what
	// lets recovery restore from a checkpoint not hosted on the failed
	// site. Empty means strictly local (§5 default).
	Replicas []topology.SiteID
	// Snapshot captures the task's current state.
	Snapshot func() ([]byte, error)
}

// Coordinator periodically snapshots registered targets into a Store on
// the virtual clock — WASP's Checkpoint Coordinator. Targets can be
// re-registered when tasks move between sites. The zero value is not
// usable; use NewCoordinator. Not safe for concurrent use (the simulation
// is single-threaded).
type Coordinator struct {
	store    *Store
	interval time.Duration
	targets  map[string]*Target
	epoch    int64
	ticker   *vclock.Event
	onError  func(error)
}

// NewCoordinator creates a coordinator checkpointing every interval on the
// given scheduler. onError observes snapshot failures (nil means they are
// silently skipped for that round).
func NewCoordinator(sched *vclock.Scheduler, store *Store, interval time.Duration, onError func(error)) *Coordinator {
	if interval <= 0 {
		panic("state: non-positive checkpoint interval")
	}
	c := &Coordinator{
		store:    store,
		interval: interval,
		targets:  make(map[string]*Target),
		onError:  onError,
	}
	c.ticker = sched.Every(interval, func(vclock.Time) { c.Checkpoint() })
	return c
}

// NewManualCoordinator creates a coordinator with no periodic ticker:
// checkpoint rounds run only when Checkpoint is called. The recovery
// manager uses this to own the checkpoint cadence itself.
func NewManualCoordinator(store *Store, onError func(error)) *Coordinator {
	return &Coordinator{
		store:   store,
		targets: make(map[string]*Target),
		onError: onError,
	}
}

// Register adds (or replaces, keyed by job/operator/task) a checkpoint
// target.
func (c *Coordinator) Register(t Target) {
	key := taskKey(t.Job, t.Operator, t.Task)
	cp := t
	c.targets[key] = &cp
}

// Unregister removes a target; its existing checkpoints remain stored.
func (c *Coordinator) Unregister(job, operator string, task int) {
	delete(c.targets, taskKey(job, operator, task))
}

// Targets returns the number of registered targets.
func (c *Coordinator) Targets() int { return len(c.targets) }

// Epoch returns the last completed checkpoint round.
func (c *Coordinator) Epoch() int64 { return c.epoch }

// Checkpoint runs one checkpoint round immediately, snapshotting every
// registered target into the store at its current site (plus any replica
// sites). Targets are visited in sorted key order: map iteration order
// must never leak into onError/Store.Put ordering, or same-seed runs
// stop being byte-identical.
func (c *Coordinator) Checkpoint() {
	c.epoch++
	for _, key := range detutil.SortedKeys(c.targets) {
		t := c.targets[key]
		data, err := t.Snapshot()
		if err != nil {
			if c.onError != nil {
				c.onError(fmt.Errorf("checkpoint %s epoch %d: %w", key, c.epoch, err))
			}
			continue
		}
		sites := []topology.SiteID{t.Site}
		for _, r := range t.Replicas {
			dup := false
			for _, s := range sites {
				dup = dup || s == r
			}
			if !dup {
				sites = append(sites, r)
			}
		}
		for _, site := range sites {
			ref := Ref{Job: t.Job, Operator: t.Operator, Task: t.Task, Epoch: c.epoch, Site: site}
			if err := c.store.put(key, ref, data); err != nil && c.onError != nil {
				c.onError(err)
			}
		}
	}
}

// Stop cancels the periodic checkpointing (a no-op for manual
// coordinators).
func (c *Coordinator) Stop() {
	if c.ticker != nil {
		c.ticker.Cancel()
	}
}
