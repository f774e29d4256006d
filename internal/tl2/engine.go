package tl2

import "semstm/internal/core"

// engine adapts a TL2 Global (clock + orec table) to the core.Engine
// registry interface; the semantic flag selects S-TL2 descriptors.
type engine struct {
	g        *Global
	semantic bool
}

func (e engine) NewTx(cfg core.TxConfig) core.TxImpl {
	tx := NewTx(e.g, e.semantic)
	tx.SetNoExtend(cfg.NoExtend)
	return tx
}

func (e engine) Quiescent() error { return e.g.Quiescent() }

// ReaderWords reports how many snapshot words descriptors have registered
// with this engine instance — the probe of the registry-bound tests.
func (e engine) ReaderWords() int { return e.g.readers.Len() }

// ClockValue exposes the engine instance's version clock — the per-shard
// "clock" probe sharded runtimes use to assert that single-shard
// transactions never move another shard's commit metadata.
func (e engine) ClockValue() uint64 { return e.g.Clock() }

func init() {
	core.RegisterEngine(core.EngineDesc{
		ID:           core.EngineTL2,
		Name:         "TL2",
		DisplayOrder: 2,
		TwoPhase:     true,
		New:          func() core.Engine { return engine{g: NewGlobal()} },
	})
	core.RegisterEngine(core.EngineDesc{
		ID:           core.EngineSTL2,
		Name:         "S-TL2",
		DisplayOrder: 3,
		Semantic:     true,
		// S-TL2 records each evaluated clause of CmpAny as its own fact
		// (per-orec versioning has no composed-fact representation), so
		// ComposedFacts stays false.
		TwoPhase: true,
		New:      func() core.Engine { return engine{g: NewGlobal(), semantic: true} },
	})
}
