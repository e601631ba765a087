package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/experiment"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// result is what a run of one cell produces, in the form the reference
// check compares: experiment.Run's result reduced to the fields the
// benchmark checks, plus the run-end invariant verdict.
type result struct {
	ticks                         int64
	generated, delivered, dropped float64
	lost, restored, processedPct  float64
	initialTasks                  int
	samples                       []experiment.WeightedDelay
	delay, ratio, parallelism     []experiment.TimePoint
	actions                       []adapt.Action
	violations                    []chaos.Violation
}

// work counts what each layer did in one cell. Every count is a pure
// function of the cell's inputs. Replans and Reconfigs are the engine's
// own counters, which exist only when an observer is attached (the traced
// run); the others live in the controller's observer and exist always.
type work struct {
	Ticks          int64
	Candidates     int64
	Rounds         int64
	Checkpoints    int64
	Actions        int64
	Replans        int64
	Reconfigs      int64
	Aborts         int64
	Reports        int64
	ReportDrops    int64
	Commands       int64
	CommandRetries int64
}

func (w *work) add(o work) {
	w.Ticks += o.Ticks
	w.Candidates += o.Candidates
	w.Rounds += o.Rounds
	w.Checkpoints += o.Checkpoints
	w.Actions += o.Actions
	w.Replans += o.Replans
	w.Reconfigs += o.Reconfigs
	w.Aborts += o.Aborts
	w.Reports += o.Reports
	w.ReportDrops += o.ReportDrops
	w.Commands += o.Commands
	w.CommandRetries += o.CommandRetries
}

// timing splits one cell's wall time: set-up is everything before the
// first tick, simulate is sched.RunUntil.
type timing struct {
	wall, setup, simulate time.Duration
}

// runOpts are the benchmark-side switches of one driver run; none of them
// changes what the simulator computes.
type runOpts struct {
	// tr, when non-nil, records spans and attaches an obs.Observer.
	tr *tracer
	// heapProbe, when non-nil, is called once set-up is complete, before
	// the first tick. A run with a probe is not timed.
	heapProbe func()
}

// runCell runs one cell the way experiment.Run does, except that it
// registers the controller's monitoring round, the checkpoint round and
// the goodput/delivery sampler on the scheduler itself — in the order
// experiment.Run registers them, so same-instant events keep their FIFO
// order — and can therefore time each of them from outside.
func runCell(c cell, o runOpts) (res *result, w work, tm timing, err error) {
	tr := o.tr
	t0 := now()
	root := tr.begin("experiment.cell", t0)
	if tr != nil {
		defer func() {
			if err != nil { // drop the failed cell's partial spans
				tr.spans, tr.open = tr.spans[:root], tr.open[:0]
			}
		}()
	}

	var top *topology.Topology
	if err := tr.layer("topology.generate", func() (err error) {
		top, err = c.topology()
		return err
	}); err != nil {
		return nil, w, tm, fmt.Errorf("topology: %w", err)
	}
	sc := withDefaults(c.scenario(top))
	if sc.Adapt.LongTermReplanEvery > 0 || sc.Flight != nil || sc.Obs != nil {
		return nil, w, tm, errors.New("scenario uses a field the driver does not wire")
	}
	if tr != nil {
		sc.Obs = obs.New(nil)
	}

	sched := vclock.NewScheduler(nil)
	var net *netsim.Network
	_ = tr.layer("netsim.setup", func() error {
		net = netsim.New(top)
		if sc.Obs != nil {
			sc.Obs.Bind(sched.Now)
			net.SetObserver(sc.Obs)
		}
		if sc.Bandwidth != nil {
			net.SetGlobalFactor(sc.Bandwidth)
		}
		if sc.PerLinkBandwidth {
			pair := int64(0)
			for from := 0; from < top.N(); from++ {
				for to := 0; to < top.N(); to++ {
					if from == to {
						continue
					}
					pair++
					net.SetLinkFactor(topology.SiteID(from), topology.SiteID(to),
						trace.LiveBandwidthFactor(sc.Seed*1000+pair, sc.Duration))
				}
			}
		}
		return nil
	})

	var (
		q    *queries.Query
		qcfg queries.Config
		best *physical.Candidate
	)
	if err := tr.layer("physical.plan", func() error {
		srcSites := sc.SourceSites
		if srcSites == nil {
			srcSites = top.SitesOfKind(topology.Edge)
		}
		qcfg = queries.Config{
			SourceSites:   srcSites,
			SinkSite:      top.SitesOfKind(topology.DataCenter)[0],
			RatePerSource: sc.RatePerSource,
			RateForSite:   sc.RateForSite,
		}
		q = sc.Query(qcfg)
		if sc.StateBytes > 0 {
			q.Spec.Template.StateBytes = sc.StateBytes
		}
		var cands []physical.Candidate
		var err error
		best, cands, err = physical.PlanQuery(q.Graph, q.Spec, top, physical.PlannerConfig{
			ScheduleConfig: physical.ScheduleConfig{Alpha: 0.8, DefaultParallelism: 1},
			MaxVariants:    sc.MaxVariants,
		})
		w.Candidates = int64(len(cands))
		return err
	}); err != nil {
		return nil, w, tm, fmt.Errorf("plan %s: %w", q.Name, err)
	}

	var eng *engine.Engine
	if err := tr.layer("engine.deploy", func() error {
		eng = engine.New(sc.Engine, top, net, sched)
		if sc.Obs != nil {
			eng.SetObserver(sc.Obs)
		}
		if err := eng.Deploy(best.Plan); err != nil {
			return err
		}
		if sc.Workload != nil {
			eng.SetWorkloadFactor(sc.Workload)
		}
		if sc.PerSourceWorkload {
			for i, op := range q.SourceOps {
				eng.SetSourceFactor(op, trace.LiveWorkloadFactor(sc.Seed*100+int64(i), sc.Duration))
			}
		}
		return nil
	}); err != nil {
		return nil, w, tm, fmt.Errorf("deploy %s: %w", q.Name, err)
	}

	var (
		ctl   *adapt.Controller
		plane *ctrlplane.Plane
		ckpt  *vclock.Event
	)
	if err := tr.layer("adapt.setup", func() error {
		ctl = adapt.NewController(sc.Adapt, eng, top, net, sched,
			&adapt.ReplanSpec{Base: q.Graph, Spec: q.Spec, Current: best.Variant, MaxVariants: sc.ReplanMaxVariants})
		if sc.Obs != nil {
			ctl.SetObserver(sc.Obs)
		}
		if sc.Ctrl != nil {
			ccfg := *sc.Ctrl
			if ccfg.ControllerSite == 0 {
				ccfg.ControllerSite = qcfg.SinkSite
			}
			if ccfg.Seed == 0 {
				ccfg.Seed = sc.Seed
			}
			plane = ctrlplane.New(ccfg, eng, net, top, sched, ctl.Observer())
			ctl.AttachControlPlane(plane)
			plane.Start()
		}
		if sc.FailFor > 0 {
			sched.At(vclock.Time(sc.FailAt), func(vclock.Time) {
				eng.Fail(vclock.Time(sc.FailFor))
			})
		}
		if sc.CheckpointEvery > 0 {
			rm := adapt.NewRecoveryManager(q.Name, sc.CheckpointEvery, eng, top, sched, nil)
			ctl.AttachRecovery(rm)
			ckpt = sched.Every(rm.Interval(), tr.wrap("adapt.checkpoint", rm.CheckpointRound))
		}
		fs := append([]faults.Fault(nil), sc.Faults...)
		if sc.FaultsFor != nil {
			fs = append(fs, sc.FaultsFor(best.Plan, top)...)
		}
		if len(fs) > 0 {
			inj := faults.NewInjector(eng, net, ctl.Observer())
			inj.SetRecoverer(ctl)
			if plane != nil {
				inj.SetControlPlane(plane)
			}
			return inj.Schedule(sched, fs)
		}
		return nil
	}); err != nil {
		return nil, w, tm, fmt.Errorf("faults %s: %w", q.Name, err)
	}

	res = &result{initialTasks: best.Plan.TotalTasks()}
	var lastGen, lastProcessed float64
	collect := func(now vclock.Time) {
		for _, d := range eng.TakeDeliveries() {
			res.samples = append(res.samples, experiment.WeightedDelay{
				At: d.At, Delay: d.Delay.Seconds(), Weight: d.Count,
			})
		}
		gen, processed, _ := eng.Goodput()
		dg, dp := gen-lastGen, processed-lastProcessed
		lastGen, lastProcessed = gen, processed
		ratio := 1.0
		if dg > 0 {
			ratio = dp / dg
		}
		res.ratio = append(res.ratio, experiment.TimePoint{T: now, V: ratio})
		if sc.Obs != nil {
			sc.Obs.Emit("goodput.sample",
				obs.F64("ratio", ratio),
				obs.F64("generated", gen),
				obs.F64("processed", processed))
		}
		res.parallelism = append(res.parallelism, experiment.TimePoint{
			T: now, V: float64(eng.Plan().TotalTasks() - res.initialTasks),
		})
	}
	sample := tr.wrap("experiment.sample", collect)
	sampler := sched.Every(sc.SampleEvery, sample)
	eng.Start()
	monitor := sched.Every(monitorInterval(sc.Adapt), tr.wrap("adapt.round", ctl.Round))

	if o.heapProbe != nil {
		o.heapProbe()
	}
	t1 := now()
	run := tr.begin("engine.run", t1)
	err = sched.RunUntil(vclock.Time(sc.Duration))
	t2 := now()
	tr.end(run, t2)
	if err != nil {
		return nil, w, tm, err
	}
	sampler.Cancel()
	monitor.Cancel()
	eng.Stop()
	sample(sched.Now())
	if ckpt != nil {
		ckpt.Cancel()
	}
	if plane != nil {
		plane.Stop()
	}

	res.delay = experiment.Bucketize(res.samples, vclock.Time(sc.SampleEvery))
	res.generated, res.delivered, res.dropped = eng.Totals()
	_, processed, _ := eng.Goodput()
	res.processedPct = 100
	if res.generated > 0 {
		res.processedPct = 100 * processed / res.generated
	}
	res.lost, res.restored = eng.Lost()
	res.ticks = eng.Ticks()
	res.actions = ctl.Actions()
	res.violations = chaos.Check(finalState(eng, net, plane, ctl.Observer()), experiment.ChaosRecoveryBound)
	t3 := now()
	tr.end(root, t3)

	tm = timing{wall: t3.Sub(t0), setup: t1.Sub(t0), simulate: t2.Sub(t1)}
	w.read(ctl.Observer().Registry())
	w.Ticks = res.ticks
	w.Actions = int64(len(res.actions))
	return res, w, tm, nil
}

// read takes the registry counters behind the work counts.
func (w *work) read(r *obs.Registry) {
	n := func(name string, labels ...string) int64 { return int64(r.Counter(name, labels...).Value()) }
	w.Rounds = n("wasp_controller_rounds_total")
	w.Checkpoints = n("wasp_checkpoints_total")
	w.Replans = n("wasp_replans_total")
	w.Reconfigs = n("wasp_reconfigurations_total")
	w.Aborts = n("wasp_adapt_aborts_total", "what", "re-plan") + n("wasp_adapt_aborts_total", "what", "reconfiguration")
	w.Reports = n("wasp_ctrl_reports_total")
	for _, reason := range []string{"partition", "blackout", "loss"} {
		w.ReportDrops += n("wasp_ctrl_report_drops_total", "reason", reason)
	}
	w.Commands = n("wasp_ctrl_commands_total")
	w.CommandRetries = n("wasp_ctrl_command_retries_total")
}

// finalState rebuilds the run-end invariant state from public engine,
// network and control-plane accessors, as experiment.Run does.
func finalState(eng *engine.Engine, net *netsim.Network, plane *ctrlplane.Plane, o *obs.Observer) chaos.RunStats {
	st := chaos.RunStats{
		Conservation:     eng.Conservation(),
		SuspendedOps:     eng.SuspendedOps(),
		PendingReconfigs: eng.PendingReconfigs(),
		Replanning:       eng.Replanning(),
		ActiveTransfers:  net.ActiveTransfers(),
		DownSites:        eng.DownSites(),
	}
	for _, ev := range o.Events("recovery.complete") {
		if d := ev.Get("recovery_time").Duration(); d > st.MaxRecovery {
			st.MaxRecovery = d
		}
	}
	if plane != nil {
		st.QuarantinedRegions = plane.QuarantinedRegions()
		st.UnackedCommands = plane.UnackedCommands()
		st.WrongActions = plane.WrongActions()
	}
	return st
}

// withDefaults mirrors experiment.Scenario's defaults.
func withDefaults(s experiment.Scenario) experiment.Scenario {
	if s.Query == nil {
		s.Query = queries.TopKTopics
	}
	if s.RatePerSource == 0 {
		s.RatePerSource = 10000
	}
	if s.SampleEvery == 0 {
		s.SampleEvery = 20 * time.Second
	}
	if s.MaxVariants == 0 {
		s.MaxVariants = 40
	}
	if s.Duration == 0 {
		s.Duration = 1500 * time.Second
	}
	return s
}

// monitorInterval mirrors adapt.Config's default monitoring period.
func monitorInterval(c adapt.Config) time.Duration {
	if c.MonitorInterval == 0 {
		return 40 * time.Second
	}
	return c.MonitorInterval
}

// heapAfterSetup runs cell c once, untimed, and returns the live heap the
// cell's set-up added, in bytes, each side read after a forced GC.
func heapAfterSetup(c cell) (uint64, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	var after uint64
	_, _, _, err := runCell(c, runOpts{heapProbe: func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		after = ms.HeapAlloc
	}})
	if after < before {
		return 0, err
	}
	return after - before, err
}
