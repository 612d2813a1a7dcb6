package main

import (
	"fmt"
	"time"

	"octopocs/internal/cfg"
	"octopocs/internal/core"
	"octopocs/internal/corpus"
	"octopocs/internal/symex"
	"octopocs/internal/telemetry"
)

// frontierWorkers is the explorer goroutine count of symex-frontier: both
// cores of the sizing rule, so parallel scaling is part of what it measures.
const frontierWorkers = 2

// frontierSpec is one prepared exhaustive exploration.
type frontierSpec struct {
	spec *corpus.SymexBenchSpec
	dist *cfg.Distances
}

func runSymexFrontier(o *options) (*outcome, error) {
	out := newOutcome()
	var specs []frontierSpec
	var err error
	out.Setup, err = measureSetup(o, 1, func() error {
		specs = specs[:0]
		for _, s := range corpus.SymexBench() {
			specs = append(specs, frontierSpec{spec: s, dist: cfg.Build(s.Prog).DistancesTo(s.Target)})
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	met := core.NewMetrics(reg)
	out.PerPass = len(specs)
	order := newPassOrder(o.seed, "symex-frontier")
	var explorations int
	err = passLoop(o, out, o.timeUp, func(traced bool) (time.Duration, error) {
		idx, err := o.nextPass(order, len(specs))
		if err != nil {
			return 0, err
		}
		var wall time.Duration
		for _, i := range idx {
			fs := specs[i]
			conf := symex.Config{
				Target:        fs.spec.Target,
				InputSize:     fs.spec.InputSize,
				Distances:     fs.dist,
				MaxBacktracks: 1 << 20,
				// Two-symbol congruence constraints cost ~64Ki evaluations
				// per filtering pass; the default budget trips on deep
				// prefixes.
				SatBudget: 1 << 27,
				Workers:   frontierWorkers,
			}
			out.collect()
			sp := -1
			if traced {
				conf.Metrics = met.Symex
				sp = o.rec.begin(o.rec.newTrace(), -1, "symex.Run")
			}
			t0 := time.Now()
			res, err := symex.New(fs.spec.Prog, conf).Run(func(symex.EpEntry, *symex.State) (symex.Decision, error) {
				return symex.Stop, nil
			})
			d := time.Since(t0)
			o.rec.end(sp)
			wall += d
			if traced {
				explorations++
			} else {
				out.Jobs[fs.spec.Name] = append(out.Jobs[fs.spec.Name], d)
				out.latency = append(out.latency, d)
			}
			// The target gate is unsatisfiable, so a correct exploration
			// retires every leaf of the search tree and never reaches it.
			switch {
			case err != nil:
				out.check(fmt.Sprintf("%s: %v", fs.spec.Name, err))
			case res.Reached():
				out.check(fmt.Sprintf("%s: unreachable target reached", fs.spec.Name))
			case res.Stats.States != fs.spec.Leaves:
				out.check(fmt.Sprintf("%s: %d states, want %d leaves", fs.spec.Name, res.Stats.States, fs.spec.Leaves))
			default:
				out.check("")
			}
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	engineCounters(out, nil, registryCounters(reg), explorations)
	return out, nil
}
