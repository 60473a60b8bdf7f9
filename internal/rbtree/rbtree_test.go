package rbtree

import (
	"math/rand"
	"sort"
	"testing"
)

type kv struct {
	key int
	d   int64 // secondary value feeding the augmentation (min-d in subtree)
}

func newKVTree() *Tree[kv] {
	return New(
		func(a, b kv) bool { return a.key < b.key },
		func(n *Node[kv]) {
			m := n.Item.d
			if l := n.Left(); l != nil && l.Aug < m {
				m = l.Aug
			}
			if r := n.Right(); r != nil && r.Aug < m {
				m = r.Aug
			}
			n.Aug = m
		},
	)
}

// checkInvariants verifies the red-black properties, ordering, parent
// pointers and augmentation. Returns the black height.
func checkInvariants(t *testing.T, tr *Tree[kv]) {
	t.Helper()
	if tr.root == nil {
		return
	}
	if tr.root.red {
		t.Fatal("root is red")
	}
	var walk func(n *Node[kv]) (blackHeight int, min, max int, aug int64)
	walk = func(n *Node[kv]) (int, int, int, int64) {
		if n == nil {
			return 1, 0, 0, 0
		}
		if n.red {
			if (n.left != nil && n.left.red) || (n.right != nil && n.right.red) {
				t.Fatal("red node with red child")
			}
		}
		lo, hi := n.Item.key, n.Item.key
		aug := n.Item.d
		lbh := 1
		if n.left != nil {
			if n.left.parent != n {
				t.Fatal("bad parent pointer (left)")
			}
			var lmin, lmax int
			var laug int64
			lbh, lmin, lmax, laug = walk(n.left)
			if lmax > n.Item.key {
				t.Fatalf("order violation: left max %d > %d", lmax, n.Item.key)
			}
			lo = lmin
			if laug < aug {
				aug = laug
			}
		}
		rbh := 1
		if n.right != nil {
			if n.right.parent != n {
				t.Fatal("bad parent pointer (right)")
			}
			var rmin, rmax int
			var raug int64
			rbh, rmin, rmax, raug = walk(n.right)
			if rmin < n.Item.key {
				t.Fatalf("order violation: right min %d < %d", rmin, n.Item.key)
			}
			hi = rmax
			if raug < aug {
				aug = raug
			}
		}
		if lbh != rbh {
			t.Fatalf("black height mismatch: %d vs %d", lbh, rbh)
		}
		if n.Aug != aug {
			t.Fatalf("augmentation stale at key %d: have %d want %d", n.Item.key, n.Aug, aug)
		}
		bh := lbh
		if !n.red {
			bh++
		}
		return bh, lo, hi, aug
	}
	walk(tr.root)
}

func items(tr *Tree[kv]) []int {
	var out []int
	tr.Ascend(func(it kv) bool { out = append(out, it.key); return true })
	return out
}

func TestInsertAscendSorted(t *testing.T) {
	tr := newKVTree()
	rng := rand.New(rand.NewSource(1))
	var keys []int
	for i := 0; i < 1000; i++ {
		k := rng.Intn(500) // duplicates likely
		keys = append(keys, k)
		tr.Insert(kv{key: k, d: int64(k * 2)})
	}
	sort.Ints(keys)
	got := items(tr)
	if len(got) != len(keys) {
		t.Fatalf("len %d want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("at %d: %d want %d", i, got[i], keys[i])
		}
	}
	checkInvariants(t, tr)
}

func TestModelRandomOps(t *testing.T) {
	tr := newKVTree()
	rng := rand.New(rand.NewSource(99))
	handles := map[*Node[kv]]bool{}
	model := map[*Node[kv]]kv{}

	for op := 0; op < 20000; op++ {
		if len(model) == 0 || rng.Intn(3) != 0 {
			it := kv{key: rng.Intn(1000), d: rng.Int63n(1e6)}
			n := tr.Insert(it)
			handles[n] = true
			model[n] = it
		} else {
			// delete a random handle
			var victim *Node[kv]
			i, stop := 0, rng.Intn(len(model))
			for h := range model {
				if i == stop {
					victim = h
					break
				}
				i++
			}
			tr.Delete(victim)
			delete(handles, victim)
			delete(model, victim)
		}
		if op%500 == 0 {
			checkInvariants(t, tr)
			if tr.Len() != len(model) {
				t.Fatalf("len %d want %d", tr.Len(), len(model))
			}
		}
	}
	checkInvariants(t, tr)

	// Verify contents against the model.
	want := make([]int, 0, len(model))
	for _, it := range model {
		want = append(want, it.key)
	}
	sort.Ints(want)
	got := items(tr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("content mismatch at %d", i)
		}
	}
}

func TestMinMaxNextPrev(t *testing.T) {
	tr := newKVTree()
	if tr.Min() != nil {
		t.Fatal("empty tree min not nil")
	}
	for _, k := range []int{5, 3, 9, 1, 7} {
		tr.Insert(kv{key: k, d: int64(k)})
	}
	if tr.Min().Item.key != 1 {
		t.Fatalf("min wrong: %d", tr.Min().Item.key)
	}
	// Walk forward, remembering the last node (the maximum).
	wantF := []int{1, 3, 5, 7, 9}
	i := 0
	var last *Node[kv]
	for n := tr.Min(); n != nil; n = tr.Next(n) {
		if n.Item.key != wantF[i] {
			t.Fatalf("next walk at %d: %d", i, n.Item.key)
		}
		last = n
		i++
	}
	// Walk backward.
	i = len(wantF) - 1
	for n := last; n != nil; n = tr.Prev(n) {
		if n.Item.key != wantF[i] {
			t.Fatalf("prev walk at %d: %d", i, n.Item.key)
		}
		i--
	}
}

// The augmented min-d query pattern used by the scheduler: find the minimum
// d among all items with key <= bound, in O(log n) using Aug.
func minDUpTo(tr *Tree[kv], bound int) (int64, bool) {
	best := int64(1<<62 - 1)
	found := false
	n := tr.Root()
	for n != nil {
		if n.Item.key <= bound {
			// Entire left subtree qualifies.
			if l := n.Left(); l != nil && l.Aug < best {
				best = l.Aug
				found = true
			}
			if n.Item.d < best {
				best = n.Item.d
				found = true
			}
			n = n.Right()
		} else {
			n = n.Left()
		}
	}
	return best, found
}

func TestAugmentedRangeMinQuery(t *testing.T) {
	tr := newKVTree()
	rng := rand.New(rand.NewSource(5))
	type rec struct {
		k int
		d int64
	}
	var all []rec
	for i := 0; i < 2000; i++ {
		r := rec{k: rng.Intn(10000), d: rng.Int63n(1e9)}
		all = append(all, r)
		tr.Insert(kv{key: r.k, d: r.d})
	}
	for q := 0; q < 500; q++ {
		bound := rng.Intn(11000) - 500
		got, found := minDUpTo(tr, bound)
		want := int64(1<<62 - 1)
		wfound := false
		for _, r := range all {
			if r.k <= bound && r.d < want {
				want = r.d
				wfound = true
			}
		}
		if found != wfound || (found && got != want) {
			t.Fatalf("bound %d: got (%d,%v) want (%d,%v)", bound, got, found, want, wfound)
		}
	}
}

func TestUpdateReestablishesAugmentation(t *testing.T) {
	tr := newKVTree()
	var nodes []*Node[kv]
	for i := 0; i < 100; i++ {
		nodes = append(nodes, tr.Insert(kv{key: i, d: int64(1000 + i)}))
	}
	// Change a non-key field and call Update.
	nodes[37].Item.d = 1
	tr.Update(nodes[37])
	checkInvariants(t, tr)
	got, _ := minDUpTo(tr, 99)
	if got != 1 {
		t.Fatalf("min-d after Update = %d want 1", got)
	}
}

// TestAugmentPropertyRandom is the property test for the augmentation: on
// random insert/delete/update sequences, every node's Aug must equal the
// brute-force minimum d over its subtree, and the red-black invariants must
// hold after every operation. It exercises exactly what the scheduler's
// hot path relies on — aggregates staying correct through rotations,
// transplant deletions, in-place Update calls and node recycling.
func TestAugmentPropertyRandom(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tr := newKVTree()
		rng := rand.New(rand.NewSource(seed))
		live := []*Node[kv]{}
		for op := 0; op < 8000; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(live) == 0: // insert
				live = append(live, tr.Insert(kv{key: rng.Intn(300), d: rng.Int63n(1e6)}))
			case r < 8: // delete a random live handle
				i := rng.Intn(len(live))
				tr.Delete(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default: // mutate the augmented value in place
				n := live[rng.Intn(len(live))]
				n.Item.d = rng.Int63n(1e6)
				tr.Update(n)
			}
			if op%97 == 0 {
				checkInvariants(t, tr)
			}
		}
		checkInvariants(t, tr)
		if tr.Len() != len(live) {
			t.Fatalf("seed %d: len %d want %d", seed, tr.Len(), len(live))
		}
	}
}

// TestSteadyChurnDoesNotAllocate pins the free-list guarantee: once a tree
// has reached its high-water mark, delete+insert churn recycles nodes
// instead of allocating.
func TestSteadyChurnDoesNotAllocate(t *testing.T) {
	tr := newKVTree()
	rng := rand.New(rand.NewSource(7))
	ring := make([]*Node[kv], 512)
	for i := range ring {
		ring[i] = tr.Insert(kv{key: rng.Intn(1 << 20), d: rng.Int63()})
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		j := i % len(ring)
		i++
		tr.Delete(ring[j])
		ring[j] = tr.Insert(kv{key: (i * 2654435761) % (1 << 20), d: int64(i)})
	})
	if allocs != 0 {
		t.Fatalf("churn allocates %.2f allocs/op, want 0", allocs)
	}
	checkInvariants(t, tr)
}

func BenchmarkInsertDelete(b *testing.B) {
	tr := newKVTree()
	rng := rand.New(rand.NewSource(1))
	var ring []*Node[kv]
	for i := 0; i < 1024; i++ {
		ring = append(ring, tr.Insert(kv{key: rng.Intn(1 << 20), d: rng.Int63()}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ring)
		tr.Delete(ring[j])
		ring[j] = tr.Insert(kv{key: rng.Intn(1 << 20), d: rng.Int63()})
	}
}
