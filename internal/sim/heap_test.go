package sim

import (
	"container/heap"
	"testing"

	"parbor/internal/refresh"
	"parbor/internal/rng"
)

// oracleHeap is the reference event queue: container/heap over the
// same slice, ordered by the same strict < on at. eventHeap must pop
// in exactly its order, including among equal times, or the Figure 16
// numbers move.
type oracleHeap []event

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h oracleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// heapPair drives eventHeap and the oracle through the same
// operations and reports the first divergent pop.
type heapPair struct {
	t      testing.TB
	got    eventHeap
	want   oracleHeap
	nextID int
	pops   int
}

func (p *heapPair) push(at float64, kind eventKind) {
	ev := event{at: at, kind: kind, id: p.nextID}
	p.nextID++
	p.got.push(ev)
	heap.Push(&p.want, ev)
}

func (p *heapPair) pop() {
	p.t.Helper()
	if len(p.got) != p.want.Len() {
		p.t.Fatalf("after %d pops: eventHeap holds %d events, oracle %d", p.pops, len(p.got), p.want.Len())
	}
	if len(p.got) == 0 {
		return
	}
	g := p.got.pop()
	w := heap.Pop(&p.want).(event)
	if g != w {
		p.t.Fatalf("pop %d: eventHeap gave (at %v, kind %d, id %d), container/heap gave (at %v, kind %d, id %d)",
			p.pops, g.at, g.kind, g.id, w.at, w.kind, w.id)
	}
	p.pops++
}

func (p *heapPair) drain() {
	p.t.Helper()
	for len(p.got) > 0 || p.want.Len() > 0 {
		p.pop()
	}
}

// TestEventHeapMatchesContainerHeap replays random push/pop
// interleavings, with times quantized to a handful of values so most
// comparisons are ties, and requires the identical (at, kind, id) pop
// sequence from both heaps.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		levels := 1 + src.Intn(6) // distinct times: 1 (all ties) .. 6
		pushBias := 0.35 + 0.3*src.Float64()
		p := &heapPair{t: t}
		for op := 0; op < 4000; op++ {
			if src.Float64() < pushBias || len(p.got) == 0 {
				p.push(float64(src.Intn(levels))*7.8125, eventKind(1+src.Intn(4)))
			} else {
				p.pop()
			}
		}
		p.drain()
	}
}

// FuzzEventHeap interprets each input byte as one operation: an odd
// byte pops, an even one pushes an event whose time is one of four
// values (bits 1-2) and whose kind comes from bits 3-4. The typed heap
// and container/heap must pop identical sequences.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 1, 1, 0, 0, 0, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{6, 4, 2, 0, 6, 4, 2, 0, 1, 8, 16, 24, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := &heapPair{t: t}
		for _, b := range ops {
			if b&1 == 1 {
				p.pop()
				continue
			}
			p.push(float64((b>>1)&3), eventKind(1+(b>>3)&3))
		}
		p.drain()
	})
}

// TestRunAllocsIndependentOfSimNs gates the event loop at zero
// allocations per event: a run five times longer may allocate only a
// small constant more (amortized growth of the queue, the bank queues
// and DC-REF's write-override map), never in proportion to the events
// it processes.
func TestRunAllocsIndependentOfSimNs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator several times")
	}
	allocs := func(simNs float64) float64 {
		cfg := quickCfg(refresh.DCREF)
		cfg.SimNs = simNs
		return testing.AllocsPerRun(2, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(2e5), allocs(1e6)
	const slack = 64
	t.Logf("allocs per Run: %.0f at SimNs 2e5, %.0f at 1e6", short, long)
	if long > short+slack {
		t.Errorf("Run allocates %.0f times at SimNs 1e6 vs %.0f at 2e5 (limit +%d): allocation per event in the loop",
			long, short, slack)
	}
}
