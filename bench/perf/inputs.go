package perf

import (
	"bytes"
	"fmt"
	"math/rand"

	"fsim/internal/dataset"
	"fsim/internal/graph"
)

// Inputs. Each workload runs on one fixed graph shape and one fixed request
// log; the seed renames the graph's node ids, and the log is renamed with
// them. Runs with different seeds therefore differ in node numbering (and
// so in memory layout, chunk scheduling, cache shards and ring placement)
// but do the same work. Fresh dataset.PowerLaw draws differ in work by up
// to 28% from one generator seed to the next (132M–169M units at 4000
// nodes), and logs drawn afresh differ in their mix of cheap and dear
// requests; either would swamp the regression bounds. Degrees are not
// capped beyond the generators' own limits, so the batch graph keeps its
// hubs: a few rows hold much of the work, and how evenly the engine's
// threads share it (core.load_balance) varies run to run.
const (
	// The batch graph is the dataset.PowerLaw(4000, 46000, 800, α=1.1)
	// shape at 15% of the size: the same 11.5 edges and 0.2 labels per
	// node, hubs up to degree ~105. One Compute takes ~0.25 s on 2 CPUs;
	// at full size it takes 6–10 s, too few per run to find a window the
	// host left alone (see window).
	batchNodes  = 600
	batchEdges  = 6900
	batchLabels = 120
	batchAlpha  = 1.1
	batchShape  = 1 // generator seed of the batch graph's shape

	serveScale = 90 // the NELL stand-in at 1/90 scale: 838 nodes

	topK     = 10
	hotNodes = 32
)

// Purposes of the fixed random streams the request logs are drawn from.
const (
	streamMixed = iota + 1
	streamProbe
	streamProbeWrites
	streamWrites
	streamHot // caller c draws from streamHot + c
)

// rngFor derives an independent random stream for one purpose of a seed.
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// fixedRNG is the random stream for one purpose, the same for every seed.
func fixedRNG(purpose int64) *rand.Rand { return rand.New(rand.NewSource(purpose)) }

// instance is one seed's copy of a workload's graph: the fixed shape base
// with its node ids shuffled by the seed, as text for the system to parse.
type instance struct {
	base *graph.Graph
	perm []graph.NodeID // node u of base is node perm[u] of the copy
	text []byte
}

func newInstance(base *graph.Graph, seed int64) *instance {
	n := base.NumNodes()
	in := &instance{base: base, perm: make([]graph.NodeID, n)}
	from := make([]graph.NodeID, n)
	for u, p := range rngFor(seed, 1).Perm(n) {
		in.perm[u] = graph.NodeID(p)
		from[p] = graph.NodeID(u)
	}
	b := graph.NewBuilder()
	for _, name := range base.LabelNames() {
		b.InternLabel(name)
	}
	for _, u := range from {
		b.AddNode(base.NodeLabelName(u))
	}
	base.Edges(func(u, v graph.NodeID) bool {
		b.MustAddEdge(in.perm[u], in.perm[v])
		return true
	})
	in.text = graphText(b.Build())
	return in
}

// node renames base node u.
func (in *instance) node(u int) int { return int(in.perm[u]) }

func graphText(g *graph.Graph) []byte {
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// batchInstance is the graph a batch run scores.
func batchInstance(seed int64) *instance {
	return newInstance(dataset.PowerLaw(batchNodes, batchEdges, batchLabels, batchAlpha, batchShape).Generate(), seed)
}

// serveInstance is the graph the serving workloads load.
func serveInstance(seed int64) *instance {
	return newInstance(dataset.MustPaperSpec("NELL", serveScale).Generate(), seed)
}

// Request classes, in the order of classNames.
const (
	classTopK = iota
	classQuery
	classNodesim
	classMatch
	classUpdate
	numClasses
)

var classNames = [numClasses]string{"topk", "query", "nodesim", "match", "updates"}

// Request is one entry of a generated request log.
type Request struct {
	Class   int
	U, V    int
	Measure string // nodesim: jaccard or simgram
	Body    string // match: the pattern graph; updates: one change line
}

// Method is the HTTP method the request is sent with.
func (r Request) Method() string {
	if r.Class == classMatch || r.Class == classUpdate {
		return "POST"
	}
	return "GET"
}

// Target is the request's path and query.
func (r Request) Target() string {
	switch r.Class {
	case classTopK:
		return fmt.Sprintf("/topk?u=%d&k=%d", r.U, topK)
	case classQuery:
		return fmt.Sprintf("/query?u=%d&v=%d", r.U, r.V)
	case classNodesim:
		return fmt.Sprintf("/nodesim?u=%d&v=%d&measure=%s", r.U, r.V, r.Measure)
	case classMatch:
		return "/match?variant=s"
	}
	return "/updates"
}

// updateStream draws single-edge changes that all commute: each touches an
// edge no earlier change touched (removing an edge of the original graph or
// adding a non-edge), so the graph after any set of them is the same in
// whatever order concurrent callers apply them, and none is a no-op.
type updateStream struct {
	in      *instance
	rng     *rand.Rand
	touched map[[2]graph.NodeID]bool // in base ids
	n       int
}

func newUpdateStream(in *instance, purpose int64) *updateStream {
	return &updateStream{in: in, rng: fixedRNG(purpose), touched: map[[2]graph.NodeID]bool{}}
}

// next draws a change on the base graph and renames it.
func (s *updateStream) next() graph.Change {
	g := s.in.base
	nodes := g.NumNodes()
	s.n++
	rename := func(op graph.ChangeOp, e [2]graph.NodeID) graph.Change {
		s.touched[e] = true
		return graph.Change{Op: op, U: s.in.perm[e[0]], V: s.in.perm[e[1]]}
	}
	if s.n%2 == 0 {
		for try := 0; try < 256; try++ {
			u := graph.NodeID(s.rng.Intn(nodes))
			out := g.Out(u)
			if len(out) == 0 {
				continue
			}
			if e := [2]graph.NodeID{u, out[s.rng.Intn(len(out))]}; !s.touched[e] {
				return rename(graph.OpRemoveEdge, e)
			}
		}
	}
	for {
		e := [2]graph.NodeID{graph.NodeID(s.rng.Intn(nodes)), graph.NodeID(s.rng.Intn(nodes))}
		if e[0] != e[1] && !g.HasEdge(e[0], e[1]) && !s.touched[e] {
			return rename(graph.OpAddEdge, e)
		}
	}
}

func (s *updateStream) request() Request {
	return Request{Class: classUpdate, Body: s.next().String() + "\n"}
}

// patternBody is a /match upload: the ≤4-node induced ball around center.
// It names no node of the searched graph, so renaming leaves it alone.
func patternBody(g *graph.Graph, center graph.NodeID) string {
	nodes := g.Ball(center, 1).ToParent
	if len(nodes) > 4 {
		nodes = nodes[:4]
	}
	return string(graphText(g.Induced(nodes).Graph))
}

// distinctPair draws v uniformly from [0, n) \ {u}.
func distinctPair(rng *rand.Rand, n, u int) int {
	v := rng.Intn(n - 1)
	if v >= u {
		v++
	}
	return v
}

// mixedLog is serve-mixed's traffic: keys uniform over all nodes; 70%
// /topk, 10% /query, 8% /nodesim, 7% /match and 5% single-change /updates.
// The reads repeat with a period of `period` requests, and every write is
// a fresh change, so any `period` consecutive requests are the same mix.
func mixedLog(in *instance, rng *rand.Rand, updates *updateStream, period, count int) []Request {
	n := in.base.NumNodes()
	cycle := make([]Request, period)
	for i := range cycle {
		u := rng.Intn(n)
		switch p := rng.Intn(100); {
		case p < 70:
			cycle[i] = Request{Class: classTopK, U: in.node(u)}
		case p < 80:
			cycle[i] = Request{Class: classQuery, U: in.node(u), V: in.node(distinctPair(rng, n, u))}
		case p < 88:
			measure := "jaccard"
			if rng.Intn(2) == 0 {
				measure = "simgram"
			}
			cycle[i] = Request{Class: classNodesim, U: in.node(u), V: in.node(distinctPair(rng, n, u)), Measure: measure}
		case p < 95:
			cycle[i] = Request{Class: classMatch, Body: patternBody(in.base, graph.NodeID(u))}
		default:
			cycle[i] = Request{Class: classUpdate}
		}
	}
	log := make([]Request, count)
	for i := range log {
		if log[i] = cycle[i%period]; log[i].Class == classUpdate {
			log[i] = updates.request()
		}
	}
	return log
}

// hotLog is caller c's read traffic on serve-hot and cluster: Zipf(1.3)
// over 32 hot nodes spread evenly over the base graph's ids, 95% /topk and
// 5% /query.
func hotLog(in *instance, c, count int) []Request {
	rng := fixedRNG(streamHot + int64(c))
	n := in.base.NumNodes()
	hot := min(hotNodes, n)
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(hot-1))
	node := func() int { return int(zipf.Uint64()) * (n / hot) }
	log := make([]Request, count)
	for i := range log {
		u := node()
		if rng.Intn(100) < 95 {
			log[i] = Request{Class: classTopK, U: in.node(u)}
			continue
		}
		v := node()
		for v == u {
			v = node()
		}
		log[i] = Request{Class: classQuery, U: in.node(u), V: in.node(v)}
	}
	return log
}
