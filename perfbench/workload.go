package main

import (
	"fmt"
	"math/rand"
	"time"
)

// cellBytes is ecfrmd's default element (cell) size; object sizes are whole
// cells, as in the paper's §VI request-size protocol.
const cellBytes = 64 << 10

// cacheBudgetBytes is the decoded-object cache budget of ecfrmd's single
// mode (internal/httpd). The read-cold dataset is sized against it.
const cacheBudgetBytes = 64 << 20

// Workload describes one traffic mix and the deployment it runs against.
type Workload struct {
	Name string
	// Cluster runs three file-backed data nodes behind a gateway and kills
	// one node after seeding; otherwise one single-mode daemon.
	Cluster bool
	// SlowDisk0 installs a fault plan, once the dataset is seeded, adding a
	// fixed latency (zero jitter) to every operation on device 0.
	SlowDisk0 time.Duration
	// DatasetBytes is the acked user bytes seeded before timing starts.
	DatasetBytes int64
	// PutShare is the fraction of timed ops that PUT a new name; the rest
	// GET a seeded object.
	PutShare float64
	// ZipfS, when positive, draws GET keys from Zipf(s) over the seeded set
	// (through rankOrder); zero means uniform.
	ZipfS float64
}

// workloads are the benchmark's traffic mixes; see README.md for why each
// exists, which layers it loads, and why read-slow-disk runs only by hand.
var workloads = map[string]Workload{
	"read-cold": {
		Name:         "read-cold",
		DatasetBytes: 4 * cacheBudgetBytes,
	},
	"mixed-hot": {
		Name:         "mixed-hot",
		DatasetBytes: 2 * cacheBudgetBytes,
		PutShare:     0.25,
		ZipfS:        1.2,
	},
	"read-slow-disk": {
		Name:         "read-slow-disk",
		DatasetBytes: 4 * cacheBudgetBytes,
		SlowDisk0:    2 * time.Millisecond,
	},
	"cluster-degraded": {
		Name:         "cluster-degraded",
		Cluster:      true,
		DatasetBytes: 96 << 20,
	},
}

// Object is one seeded or PUT object. Its payload is a pure function of ID
// (see fillPayload), so nothing but the ID and size needs remembering.
type Object struct {
	Name  string
	Size  int
	ID    uint64
	Cells int
}

// mix64 is the splitmix64 finalizer: a cheap bijective hash used to derive
// independent per-object payload streams from (seed, index).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillPayload writes object id's deterministic content into buf.
func fillPayload(buf []byte, id uint64) {
	s := mix64(id)
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		s = mix64(s)
		buf[i] = byte(s)
		buf[i+1] = byte(s >> 8)
		buf[i+2] = byte(s >> 16)
		buf[i+3] = byte(s >> 24)
		buf[i+4] = byte(s >> 32)
		buf[i+5] = byte(s >> 40)
		buf[i+6] = byte(s >> 48)
		buf[i+7] = byte(s >> 56)
	}
	for s = mix64(s); i < len(buf); i++ {
		buf[i] = byte(s)
		s >>= 8
	}
}

// payload allocates and fills object o's content.
func payload(o Object) []byte {
	b := make([]byte, o.Size)
	fillPayload(b, o.ID)
	return b
}

// objectID derives the payload ID of the idx-th object of a stream.
func objectID(seed int64, stream string, idx int) uint64 {
	h := uint64(seed)
	for _, c := range []byte(stream) {
		h = mix64(h ^ uint64(c))
	}
	return mix64(h ^ uint64(idx))
}

// drawCells draws an object size in cells: uniform on 1..20.
func drawCells(r *rand.Rand) int { return 1 + r.Intn(20) }

// SeedSet is the dataset seeded before timing: objects of 1–20 cells until
// their total reaches target bytes. Sizes come in rounds, each a seeded
// shuffle of all 20 sizes, and the set ends on a whole round. So every size
// is equally common in every seed's set, uniform as §VI draws them, and
// only the order, names and contents vary with the seed; a set that by
// chance held larger objects would move GET latency and throughput between
// seeds. The same seed gives the same set.
func SeedSet(seed int64, target int64) []Object {
	r := rand.New(rand.NewSource(seed))
	var objs []Object
	var total int64
	var round []int
	for i := 0; total < target || len(round) > 0; i++ {
		if len(round) == 0 {
			round = r.Perm(20)
		}
		c := 1 + round[0]
		round = round[1:]
		o := Object{
			Name:  fmt.Sprintf("s%d-%05d", seed, i),
			Size:  c * cellBytes,
			ID:    objectID(seed, "seed", i),
			Cells: c,
		}
		objs = append(objs, o)
		total += int64(o.Size)
	}
	return objs
}

// OpKind is GET or PUT.
type OpKind uint8

const (
	OpGet OpKind = iota
	OpPut
)

func (k OpKind) String() string {
	if k == OpPut {
		return "put"
	}
	return "get"
}

// Op is one request of the timed loop: a GET of seeded object Key, or a PUT
// of the new object Obj.
type Op struct {
	Kind OpKind
	Key  int
	Obj  Object
}

// OpStream is one client's endless, seeded op sequence. Each client owns a
// stream, so the sequence each client issues depends only on (seed, client),
// never on timing.
type OpStream struct {
	w      Workload
	seed   int64
	client int
	r      *rand.Rand
	zipf   *rand.Zipf
	perm   []int
	n      int
	puts   int
}

// NewOpStream returns client's op stream over seed's seeded set.
func NewOpStream(w Workload, seed int64, client int, set []Object) *OpStream {
	n := len(set)
	s := &OpStream{w: w, seed: seed, client: client, n: n,
		r: rand.New(rand.NewSource(int64(mix64(uint64(seed)^uint64(client+1)*0x51ed27)) & (1<<63 - 1)))}
	if w.ZipfS > 0 && n > 1 {
		s.perm = rankOrder(set)
		s.zipf = rand.NewZipf(s.r, w.ZipfS, 1, uint64(n-1))
	}
	return s
}

// rankOrder maps Zipf popularity ranks to seeded objects, shared by all
// clients. Sizes are stratified across ranks — rank r takes the next object
// of size class 1+(7r mod 20) cells, or the nearest class with one left —
// so the hot head's byte mix, which sets GET throughput and latency when a
// few ranks draw most GETs, is the same for every seed. Which object of a
// class, its name and its content still come from the seed.
func rankOrder(set []Object) []int {
	classes := map[int][]int{}
	for i, o := range set {
		classes[o.Cells] = append(classes[o.Cells], i)
	}
	order := make([]int, 0, len(set))
	for r := 0; len(order) < len(set); r++ {
		want := 1 + (7*r)%20
		for d := 0; d < 20; d++ {
			c := 1 + (want-1+d)%20
			if idx := classes[c]; len(idx) > 0 {
				order = append(order, idx[0])
				classes[c] = idx[1:]
				break
			}
		}
	}
	return order
}

// Next returns the stream's next op.
func (s *OpStream) Next() Op {
	if s.w.PutShare > 0 && s.r.Float64() < s.w.PutShare {
		c := drawCells(s.r)
		stream := fmt.Sprintf("put-%d", s.client)
		o := Object{
			Name:  fmt.Sprintf("p%d-c%d-%05d", s.seed, s.client, s.puts),
			Size:  c * cellBytes,
			ID:    objectID(s.seed, stream, s.puts),
			Cells: c,
		}
		s.puts++
		return Op{Kind: OpPut, Obj: o}
	}
	if s.zipf != nil {
		return Op{Kind: OpGet, Key: s.perm[s.zipf.Uint64()]}
	}
	return Op{Kind: OpGet, Key: s.r.Intn(s.n)}
}
