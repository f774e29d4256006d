package stm

// DescriptorWords reports how many descriptors rt has built — the length of
// its descriptor registry, whose words are also rt's epoch words.
func DescriptorWords(rt *Runtime) int { return rt.descs.Len() }

// ReaderWords reports how many snapshot words rt's instance of engine a has
// registered, or -1 if the engine was never built or has no probe.
func ReaderWords(rt *Runtime, a Algorithm) int {
	rt.engMu.Lock()
	eng := rt.engines[a]
	rt.engMu.Unlock()
	if p, ok := eng.(interface{ ReaderWords() int }); ok {
		return p.ReaderWords()
	}
	return -1
}
