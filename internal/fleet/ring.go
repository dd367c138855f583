package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over the fleet's live nodes: each node
// contributes Replicas virtual points (hash64 of "addr#i") on a 64-bit
// circle, and a key's owner is the first virtual point at or after the
// key's hash. Consistent hashing gives the two placement properties the
// failover design leans on: removing a node moves only the keys it owned
// (each lands on its "next hash owner"), and re-adding it moves exactly
// those keys back — so a healed partition reclaims its own sessions and
// nothing else reshuffles.
type Ring struct {
	points []point
}

// point is one virtual node position.
type point struct {
	hash uint64
	addr string
}

// defaultReplicas is the virtual-node count per node, cheap to rebuild on
// every membership transition. Over 300 random loopback fleets of 2-8
// nodes with 4,000 session keys each, the least-loaded node got at worst
// 0.60x of its fair share and the most-loaded at worst 1.36x (raw FNV
// without hash64's finalizer: 0.05x and 3.7x). TestRingBalance pins every
// share within [0.5, 1.6]x.
const defaultReplicas = 64

// NewRing builds a ring over the node addresses (duplicates are collapsed;
// replicas < 1 uses the default). An empty node list yields an empty ring
// whose Owner is always "".
func NewRing(nodes []string, replicas int) *Ring {
	if replicas < 1 {
		replicas = defaultReplicas
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{points: make([]point, 0, len(nodes)*replicas)}
	for _, addr := range nodes {
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, point{hash: hash64(addr + "#" + strconv.Itoa(i)), addr: addr})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on address so the ring is deterministic even across the
		// (vanishingly unlikely) 64-bit collision of two virtual points.
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// Owner returns the node owning the key: the first virtual point clockwise
// from the key's hash, wrapping at the top of the circle. "" on an empty
// ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].addr
}

// Nodes returns the distinct node addresses on the ring, sorted.
func (r *Ring) Nodes() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range r.points {
		if !seen[p.addr] {
			seen[p.addr] = true
			out = append(out, p.addr)
		}
	}
	sort.Strings(out)
	return out
}

// hash64 is FNV-64a — the repo's standard dependency-free hash (same family
// as trace.SpanIDFor), deterministic across processes so every node derives
// the same placement — finished with murmur3's fmix64. Raw FNV barely
// mixes a string's last bytes into the high bits, so virtual points "addr#i"
// and keys that differ only in their last characters cluster on the
// circle; the finalizer spreads every input bit over the whole word.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb3f53ee53e81
	x ^= x >> 33
	return x
}
