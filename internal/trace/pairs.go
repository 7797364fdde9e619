package trace

// PairIndex numbers the (counter, CPU) pairs of a sample stream in the
// order they are first touched and finds the pair of a sample in a table
// indexed by its CPU and its counter, not by a map look-up: a pair whose
// CPU id is below nearCPUs and whose counter id is below nearCounters —
// every pair of a simulated run's trace, whose CPUs count up from 0 and
// whose counters are a handful of small ids — is found at
// near[cpu*nearCounters+counter], one load. Only a pair with a larger id
// goes to far, a map, so no sample costs more than one map look-up,
// whatever the counters and CPU ids. The table grows to the largest CPU
// id a near pair names, at most nearCPUs rows of nearCounters entries.
// The zero value is an empty index.
type PairIndex struct {
	keys []uint64 // by pair number: pairKey of the pair
	// near holds 1 + the number of each near pair at its place, 0 where
	// no pair is.
	near []int32
	far  map[uint64]int // pairKey → pair number, for the other pairs
}

// The near table's bounds: 64K entries, 256 KB, at the most. It starts
// with room for firstPairs CPUs and the pair list for firstPairs pairs,
// so a trace of a few dozen CPUs and one counter grows neither.
const (
	nearCounters = 16
	nearCPUs     = 4096
	firstPairs   = 64
)

// pairKey packs a counter and a CPU into one map key.
func pairKey(id CounterID, cpu int32) uint64 { return uint64(id)<<32 | uint64(uint32(cpu)) }

// nearAt returns where the near table keeps the pair of counter id on
// cpu, -1 for a far pair.
func nearAt(id CounterID, cpu int32) int {
	if uint32(cpu) < nearCPUs && id < nearCounters {
		return int(cpu)*nearCounters + int(id)
	}
	return -1
}

// Find returns the number of the pair of counter id on cpu; added
// reports that the pair is new, numbered by this call.
func (p *PairIndex) Find(id CounterID, cpu int32) (n int, added bool) {
	if at := nearAt(id, cpu); at >= 0 && at < len(p.near) && p.near[at] > 0 {
		return int(p.near[at] - 1), false
	}
	return p.find(id, cpu)
}

// find is Find for a far pair or a new one.
func (p *PairIndex) find(id CounterID, cpu int32) (int, bool) {
	key := pairKey(id, cpu)
	if at := nearAt(id, cpu); at >= 0 {
		if at >= len(p.near) {
			grown := make([]int32, max(at+nearCounters-at%nearCounters, min(2*len(p.near), nearCPUs*nearCounters), firstPairs*nearCounters))
			copy(grown, p.near)
			p.near = grown
		}
		p.near[at] = int32(len(p.keys) + 1)
	} else {
		if n, ok := p.far[key]; ok {
			return n, false
		}
		if p.far == nil {
			p.far = make(map[uint64]int)
		}
		p.far[key] = len(p.keys)
	}
	if p.keys == nil {
		p.keys = make([]uint64, 0, firstPairs)
	}
	p.keys = append(p.keys, key)
	return len(p.keys) - 1, true
}

// Reset forgets every pair, keeping the memory for the next stream.
func (p *PairIndex) Reset() {
	for _, key := range p.keys {
		if at := nearAt(CounterID(key>>32), int32(uint32(key))); at >= 0 {
			p.near[at] = 0
		}
	}
	clear(p.far)
	p.keys = p.keys[:0]
}
