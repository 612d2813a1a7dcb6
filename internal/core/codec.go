package core

// codec.go externalizes the phase artifacts for the persistent artifact
// store (internal/artifact): each codec turns a cached value into a
// self-contained byte payload and back. The wire forms deliberately avoid
// serializing derived graph structure where a cheap deterministic rebuild
// exists — the P2 codec stores the program text plus the dynamically
// observed call edges (the only part that cost symbolic execution to
// discover) and replays them onto a freshly built graph, and the static
// codec stores only the program text because the whole analysis is a pure
// function of it. Decode failures are reported as errors and treated by the
// store as a miss, so a truncated or stale payload can only cost a
// recomputation, never a wrong artifact.

import (
	"encoding/json"
	"fmt"

	"octopocs/internal/absint"
	"octopocs/internal/asm"
	"octopocs/internal/cfg"
	"octopocs/internal/hybrid"
	"octopocs/internal/isa"
	"octopocs/internal/mirstatic"
	"octopocs/internal/vm"
)

// P1Codec encodes *P1Artifact values for the disk tier. The artifact is
// plain data (entry point, crash, materialized bunches), so the wire form
// is its direct JSON encoding.
type P1Codec struct{}

// p1Wire is the on-disk form of a P1Artifact.
type p1Wire struct {
	Ep      string       `json:"ep"`
	SCrash  *vm.Crash    `json:"s_crash"`
	Bunches []BunchBytes `json:"bunches"`
}

// Encode marshals a *P1Artifact.
func (P1Codec) Encode(v any) ([]byte, error) {
	art, ok := v.(*P1Artifact)
	if !ok {
		return nil, fmt.Errorf("core: p1 codec: unexpected value type %T", v)
	}
	return json.Marshal(p1Wire{Ep: art.Ep, SCrash: art.SCrash, Bunches: art.Bunches})
}

// Decode unmarshals a *P1Artifact.
func (P1Codec) Decode(data []byte) (any, error) {
	var w p1Wire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: p1 codec: %w", err)
	}
	if w.SCrash == nil {
		return nil, fmt.Errorf("core: p1 codec: payload has no crash")
	}
	return &P1Artifact{Ep: w.Ep, SCrash: w.SCrash, Bunches: w.Bunches}, nil
}

// P2Codec encodes *P2Artifact values for the disk tier. Only the inputs
// that cost real work travel: the assembled T text, the target ep, the
// pruned flag, and the dynamically observed indirect-call edges. Decode
// re-parses the program, rebuilds the (possibly pruned) graph, replays the
// edges in their recorded order, and recomputes the distance maps — all
// cheap static passes; the symbolic discovery whose result the edges carry
// is what the artifact saves.
type P2Codec struct{}

// p2Wire is the on-disk form of a P2Artifact.
type p2Wire struct {
	T        string             `json:"t"`
	Ep       string             `json:"ep"`
	Pruned   bool               `json:"pruned"`
	Absint   bool               `json:"absint,omitempty"`
	Observed []cfg.ObservedEdge `json:"observed,omitempty"`
	HasDist  bool               `json:"has_dist"`
}

// Encode marshals a *P2Artifact.
func (P2Codec) Encode(v any) ([]byte, error) {
	art, ok := v.(*P2Artifact)
	if !ok {
		return nil, fmt.Errorf("core: p2 codec: unexpected value type %T", v)
	}
	if art.Graph == nil || art.Graph.Prog == nil {
		return nil, fmt.Errorf("core: p2 codec: artifact has no graph")
	}
	return json.Marshal(p2Wire{
		T:        asm.Format(art.Graph.Prog),
		Ep:       art.Ep,
		Pruned:   art.Pruned,
		Absint:   art.Absint,
		Observed: art.Graph.ObservedEdges(),
		HasDist:  art.Dist != nil,
	})
}

// Decode rebuilds a *P2Artifact from its wire form.
func (P2Codec) Decode(data []byte) (any, error) {
	var w p2Wire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: p2 codec: %w", err)
	}
	prog, err := asm.Parse(w.T)
	if err != nil {
		return nil, fmt.Errorf("core: p2 codec: parse T: %w", err)
	}
	var pruner cfg.Pruner
	if w.Pruned {
		sa, aerr := mirstatic.Analyze(prog, rangesIf(w.Absint, prog))
		if aerr != nil {
			return nil, fmt.Errorf("core: p2 codec: reanalyze T: %w", aerr)
		}
		pruner = sa
	}
	graph := cfg.BuildPruned(prog, pruner)
	for _, e := range w.Observed {
		graph.ObserveCall(e.Site, e.Callee)
	}
	art := &P2Artifact{Graph: graph, Ep: w.Ep, Pruned: w.Pruned, Absint: w.Absint}
	if w.HasDist {
		art.Dist = graph.DistancesTo(w.Ep)
	}
	return art, nil
}

// HybridCodec encodes *hybrid.Outcome values for the disk tier. The outcome
// is plain data (rescue flag, poc' bytes, exec counts), so the wire form is
// its direct JSON encoding. A decoded outcome claiming a rescue is not
// trusted on its own: the pipeline replays its poc' on the concrete VM
// before reuse and discards the artifact if the crash does not reproduce.
type HybridCodec struct{}

// Encode marshals a *hybrid.Outcome.
func (HybridCodec) Encode(v any) ([]byte, error) {
	o, ok := v.(*hybrid.Outcome)
	if !ok {
		return nil, fmt.Errorf("core: hybrid codec: unexpected value type %T", v)
	}
	return json.Marshal(o)
}

// Decode unmarshals a *hybrid.Outcome.
func (HybridCodec) Decode(data []byte) (any, error) {
	o := new(hybrid.Outcome)
	if err := json.Unmarshal(data, o); err != nil {
		return nil, fmt.Errorf("core: hybrid codec: %w", err)
	}
	if o.Rescued && len(o.PoCPrime) == 0 {
		return nil, fmt.Errorf("core: hybrid codec: rescued outcome has no poc'")
	}
	return o, nil
}

// StaticCodec encodes *mirstatic.Analysis values for the disk tier. The
// analysis is a pure deterministic function of the program, so the wire
// form is just the assembled text; Decode re-runs the analysis.
type StaticCodec struct{}

// staticWire is the on-disk form of a static pre-analysis.
type staticWire struct {
	T      string `json:"t"`
	Absint bool   `json:"absint,omitempty"`
}

// Encode marshals a *mirstatic.Analysis.
func (StaticCodec) Encode(v any) ([]byte, error) {
	sa, ok := v.(*mirstatic.Analysis)
	if !ok {
		return nil, fmt.Errorf("core: static codec: unexpected value type %T", v)
	}
	return json.Marshal(staticWire{T: asm.Format(sa.Prog), Absint: sa.Ranges != nil})
}

// Decode re-derives a *mirstatic.Analysis from the stored program text.
func (StaticCodec) Decode(data []byte) (any, error) {
	var w staticWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: static codec: %w", err)
	}
	prog, err := asm.Parse(w.T)
	if err != nil {
		return nil, fmt.Errorf("core: static codec: parse T: %w", err)
	}
	sa, err := mirstatic.Analyze(prog, rangesIf(w.Absint, prog))
	if err != nil {
		return nil, fmt.Errorf("core: static codec: reanalyze T: %w", err)
	}
	return sa, nil
}

// AbsintCodec encodes *absint.Result values for the disk tier. The analysis
// is a pure deterministic function of the program, so the wire form is just
// the assembled text; Decode re-runs the fixpoint.
type AbsintCodec struct{}

// absintWire is the on-disk form of an abstract interpretation.
type absintWire struct {
	T string `json:"t"`
}

// Encode marshals an *absint.Result.
func (AbsintCodec) Encode(v any) ([]byte, error) {
	ai, ok := v.(*absint.Result)
	if !ok {
		return nil, fmt.Errorf("core: absint codec: unexpected value type %T", v)
	}
	return json.Marshal(absintWire{T: asm.Format(ai.Prog)})
}

// Decode re-derives an *absint.Result from the stored program text.
func (AbsintCodec) Decode(data []byte) (any, error) {
	var w absintWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: absint codec: %w", err)
	}
	prog, err := asm.Parse(w.T)
	if err != nil {
		return nil, fmt.Errorf("core: absint codec: parse T: %w", err)
	}
	return absint.Analyze(prog), nil
}

// rangesIf re-derives the value ranges a decoded static analysis was
// strengthened with: absint.Analyze(prog) when on, nil otherwise.
func rangesIf(on bool, prog *isa.Program) *absint.Result {
	if !on {
		return nil
	}
	return absint.Analyze(prog)
}
