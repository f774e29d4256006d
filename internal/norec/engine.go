package norec

import "semstm/internal/core"

// engine adapts a NOrec Global to the core.Engine registry interface; the
// semantic flag selects between baseline NOrec and S-NOrec descriptors over
// the same global sequence lock.
type engine struct {
	g        *Global
	semantic bool
}

func (e engine) NewTx(cfg core.TxConfig) core.TxImpl {
	tx := NewTx(e.g, e.semantic)
	tx.SetDedupReads(cfg.DedupReads)
	return tx
}

func (e engine) Quiescent() error { return e.g.Quiescent() }

// ReaderWords reports how many snapshot words descriptors have registered
// with this engine instance — the probe of the registry-bound tests.
func (e engine) ReaderWords() int { return e.g.readers.Len() }

// ClockValue exposes the engine instance's sequence-lock value — the
// per-shard "clock" probe sharded runtimes use to assert that single-shard
// transactions never move another shard's commit metadata.
func (e engine) ClockValue() uint64 { return e.g.Sequence() }

func init() {
	core.RegisterEngine(core.EngineDesc{
		ID:           core.EngineNOrec,
		Name:         "NOrec",
		DisplayOrder: 0,
		TwoPhase:     true,
		New:          func() core.Engine { return engine{g: NewGlobal()} },
	})
	core.RegisterEngine(core.EngineDesc{
		ID:            core.EngineSNOrec,
		Name:          "S-NOrec",
		DisplayOrder:  1,
		Semantic:      true,
		ComposedFacts: true,
		TwoPhase:      true,
		New:           func() core.Engine { return engine{g: NewGlobal(), semantic: true} },
	})
}
