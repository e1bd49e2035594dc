package fsim_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fsim"
)

// ExampleCompute quantifies how nearly one node simulates another when the
// exact relation fails — the paper's poster-plagiarism motivation.
func ExampleCompute() {
	// A poster P and a database poster P1 differing in one design element.
	b := fsim.NewBuilder()
	p := b.AddNode("poster")
	b.MustAddEdge(p, b.AddNode("Arial"))
	b.MustAddEdge(p, b.AddNode("Brown"))
	b.MustAddEdge(p, b.AddNode("Comic"))
	g1 := b.Build()

	b2 := fsim.NewBuilder()
	p1 := b2.AddNode("poster")
	b2.MustAddEdge(p1, b2.AddNode("Arial"))
	b2.MustAddEdge(p1, b2.AddNode("Brown"))
	b2.MustAddEdge(p1, b2.AddNode("Times")) // the one changed element
	g2 := b2.Build()

	// Exact simulation: a hard no.
	fmt.Println("exact:", fsim.Simulated(g1, g2, p, p1, fsim.S))

	// Fractional simulation: quantifies the near-miss.
	opts := fsim.DefaultOptions(fsim.S)
	opts.Label = fsim.Indicator
	res, _ := fsim.Compute(g1, g2, opts)
	fmt.Printf("fractional: %.2f\n", res.Score(p, p1))
	// Output:
	// exact: false
	// fractional: 0.97
}

// ExampleMaximalSimulation lists which nodes of one graph simulate a query
// node — the building block of simulation-based pattern matching.
func ExampleMaximalSimulation() {
	qb := fsim.NewBuilder()
	q := qb.AddNode("person")
	qb.MustAddEdge(q, qb.AddNode("post"))
	query := qb.Build()

	db := fsim.NewBuilder()
	alice := db.AddNode("person") // has a post: simulates q
	bob := db.AddNode("person")   // no post: does not
	db.MustAddEdge(alice, db.AddNode("post"))
	data := db.Build()

	rel := fsim.MaximalSimulation(query, data, fsim.S)
	fmt.Println("alice:", rel.Contains(int(q), int(alice)))
	fmt.Println("bob:", rel.Contains(int(q), int(bob)))
	// Output:
	// alice: true
	// bob: false
}

// ExampleIndex_TopK answers a top-k similarity query through the reusable
// query index: the candidate structures are built once, then each query
// runs a localized fixed point over only the pairs it can reach — without
// materializing the all-pairs result a Compute call produces.
func ExampleIndex_TopK() {
	b := fsim.NewBuilder()
	ada := b.AddNode("user")
	b.MustAddEdge(ada, b.AddNode("item"))
	b.MustAddEdge(ada, b.AddNode("item"))
	twin := b.AddNode("user")
	b.MustAddEdge(twin, b.AddNode("item"))
	b.MustAddEdge(twin, b.AddNode("item"))
	casual := b.AddNode("user")
	b.MustAddEdge(casual, b.AddNode("item"))
	g := b.Build()

	ix, err := fsim.NewIndex(g, g, fsim.DefaultOptions(fsim.BJ))
	if err != nil {
		panic(err)
	}
	top, err := ix.TopK(ada, 3) // who best simulates ada?
	if err != nil {
		panic(err)
	}
	for _, r := range top {
		fmt.Printf("node %d: %.2f\n", r.Index, r.Score)
	}
	// Output:
	// node 0: 1.00
	// node 3: 1.00
	// node 6: 0.87
}

// ExampleMaintainer keeps FSim scores fresh while the graph changes:
// each Apply re-converges only the update's neighborhood instead of
// recomputing the fixed point from scratch, and reads stay identical to a
// fresh Compute on the mutated graph.
func ExampleMaintainer() {
	b := fsim.NewBuilder()
	ada := b.AddNode("user")
	b.MustAddEdge(ada, b.AddNode("item"))
	b.MustAddEdge(ada, b.AddNode("item"))
	rival := b.AddNode("user")
	b.MustAddEdge(rival, b.AddNode("item"))
	g := b.Build()

	opts := fsim.DefaultOptions(fsim.BJ)
	opts.Theta = 0.6 // a selective candidate map keeps updates local
	mt, err := fsim.NewMaintainer(g, opts)
	if err != nil {
		panic(err)
	}
	before, _ := mt.Score(ada, rival)
	fmt.Printf("before: %.2f\n", before)

	// rival catches up: one new item, streamed as an update batch.
	item := fsim.NodeID(g.NumNodes())
	_, err = mt.Apply([]fsim.Change{
		{Op: fsim.OpAddNode, Label: "item"},
		{Op: fsim.OpAddEdge, U: rival, V: item},
	})
	if err != nil {
		panic(err)
	}
	after, _ := mt.Score(ada, rival)
	fmt.Printf("after: %.2f\n", after)
	// Output:
	// before: 0.87
	// after: 1.00
}

// ExampleServer puts the similarity engine behind the HTTP serving layer:
// reads are answered through a graph-version-stamped result cache, update
// batches bump the version, and every response reports the version its
// scores were computed at — always exactly what a fresh Compute on that
// snapshot would return.
func ExampleServer() {
	b := fsim.NewBuilder()
	ada := b.AddNode("user")
	b.MustAddEdge(ada, b.AddNode("item"))
	b.MustAddEdge(ada, b.AddNode("item"))
	rival := b.AddNode("user")
	b.MustAddEdge(rival, b.AddNode("item"))
	g := b.Build()

	opts := fsim.DefaultOptions(fsim.BJ)
	opts.Theta = 0.6 // selectivity keeps per-miss computations local
	opts.Threads = 1
	srv, err := fsim.NewServer(g, opts, fsim.ServerOptions{})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	topk := func() {
		resp, err := http.Get(ts.URL + "/topk?u=0&k=2")
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		var tr struct {
			GraphVersion uint64 `json:"graphVersion"`
			Results      []struct {
				Node  int     `json:"node"`
				Score float64 `json:"score"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			panic(err)
		}
		fmt.Printf("version %d:\n", tr.GraphVersion)
		for _, r := range tr.Results {
			fmt.Printf("  node %d: %.2f\n", r.Node, r.Score)
		}
	}
	topk()

	// rival catches up: one update batch in the stream text format.
	resp, err := http.Post(ts.URL+"/updates", "text/plain",
		strings.NewReader("+n item\n+e 3 5\n"))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()
	topk()
	// Output:
	// version 0:
	//   node 0: 1.00
	//   node 3: 0.87
	// version 1:
	//   node 0: 1.00
	//   node 3: 1.00
}

// ExampleServer_match serves pattern matching as a registered workload:
// the client POSTs a query graph in the text format and gets back the
// simulation-based match against the live served graph, stamped with the
// graph version it was computed at. The same request repeated is a cache
// hit — uploaded bodies are hashed canonically, so reformatting the query
// does not change its cache identity.
func ExampleServer_match() {
	// The served graph: two users, one with a post.
	b := fsim.NewBuilder()
	alice := b.AddNode("person")
	b.MustAddEdge(alice, b.AddNode("post"))
	b.AddNode("person") // bob: no post
	g := b.Build()

	opts := fsim.DefaultOptions(fsim.BJ)
	opts.Threads = 1
	srv, err := fsim.NewServer(g, opts, fsim.ServerOptions{})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The query pattern, in the same text format graphs load from:
	// a person with a post.
	query := "n person\nn post\ne 0 1\n"
	resp, err := http.Post(ts.URL+"/match?variant=s", "text/plain",
		strings.NewReader(query))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var mr struct {
		GraphVersion uint64 `json:"graphVersion"`
		Variant      string `json:"variant"`
		Found        bool   `json:"found"`
		Assignment   []int  `json:"assignment"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		panic(err)
	}
	fmt.Printf("version %d variant %s found %v\n", mr.GraphVersion, mr.Variant, mr.Found)
	fmt.Printf("query node 0 -> graph node %d\n", mr.Assignment[0])
	// Output:
	// version 0 variant s found true
	// query node 0 -> graph node 0
}

// ExampleNewRouter runs the replicated serving tier in one process: a
// leader owning the write path, two followers replicating its change log,
// and a router consistent-hashing reads across them. The client's
// read-your-writes token (the X-Fsim-Version header of its write) makes
// the router wait for a replica that has caught up, so the read after the
// update observes the new version — with scores bit-identical to the
// leader's.
func ExampleNewRouter() {
	b := fsim.NewBuilder()
	ada := b.AddNode("user")
	b.MustAddEdge(ada, b.AddNode("item"))
	b.MustAddEdge(ada, b.AddNode("item"))
	rival := b.AddNode("user")
	b.MustAddEdge(rival, b.AddNode("item"))
	g := b.Build()

	opts := fsim.DefaultOptions(fsim.BJ)
	opts.Theta = 0.6
	opts.Threads = 1
	leader, err := fsim.NewServer(g, opts, fsim.ServerOptions{Role: fsim.RoleLeader})
	if err != nil {
		panic(err)
	}
	leaderTS := httptest.NewServer(leader)
	defer leaderTS.Close()

	ctx := context.Background()
	var replicas []string
	for i := 0; i < 2; i++ {
		f, err := fsim.StartFollower(ctx, fsim.FollowerOptions{
			Leader:       leaderTS.URL,
			PollInterval: 5 * time.Millisecond,
		})
		if err != nil {
			panic(err)
		}
		defer f.Close(ctx)
		ts := httptest.NewServer(f)
		defer ts.Close()
		replicas = append(replicas, ts.URL)
	}

	router, err := fsim.NewRouter(fsim.RouterOptions{
		Leader:         leaderTS.URL,
		Replicas:       replicas,
		HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	defer router.Close()
	routerTS := httptest.NewServer(router)
	defer routerTS.Close()

	// Wait for the probe loop to admit both replicas.
	for router.Ring().HealthyCount() < 2 {
		time.Sleep(5 * time.Millisecond)
	}

	read := func(minVersion string) {
		req, _ := http.NewRequest(http.MethodGet, routerTS.URL+"/topk?u=0&k=2", nil)
		if minVersion != "" {
			req.Header.Set(fsim.MinVersionHeader, minVersion)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		var tr struct {
			GraphVersion uint64 `json:"graphVersion"`
			Results      []struct {
				Node  int     `json:"node"`
				Score float64 `json:"score"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			panic(err)
		}
		fmt.Printf("version %d:\n", tr.GraphVersion)
		for _, r := range tr.Results {
			fmt.Printf("  node %d: %.2f\n", r.Node, r.Score)
		}
	}
	read("")

	// A write through the router lands on the leader; its response header
	// is the read-your-writes token for the follow-up read.
	resp, err := http.Post(routerTS.URL+"/updates", "text/plain",
		strings.NewReader("+n item\n+e 3 5\n"))
	if err != nil {
		panic(err)
	}
	resp.Body.Close()
	token := resp.Header.Get(fsim.VersionHeader)
	read(token)
	// Output:
	// version 0:
	//   node 0: 1.00
	//   node 3: 0.87
	// version 1:
	//   node 0: 1.00
	//   node 3: 1.00
}

// ExampleSaveSnapshot persists a maintainer's complete state — graph,
// candidate structures, scores, version — as a crash-safe binary snapshot
// and warm starts from it: the loaded maintainer serves the same scores at
// the same version without recomputing the fixed point, which is what lets
// a serving process restart in I/O-bound time.
func ExampleSaveSnapshot() {
	b := fsim.NewBuilder()
	ada := b.AddNode("user")
	b.MustAddEdge(ada, b.AddNode("item"))
	b.MustAddEdge(ada, b.AddNode("item"))
	rival := b.AddNode("user")
	b.MustAddEdge(rival, b.AddNode("item"))
	g := b.Build()

	opts := fsim.DefaultOptions(fsim.BJ)
	opts.Theta = 0.6
	mt, err := fsim.NewMaintainer(g, opts)
	if err != nil {
		panic(err)
	}
	// One update batch, so the snapshot captures a non-zero version.
	_, err = mt.Apply([]fsim.Change{
		{Op: fsim.OpAddNode, Label: "item"},
		{Op: fsim.OpAddEdge, U: rival, V: fsim.NodeID(g.NumNodes())},
	})
	if err != nil {
		panic(err)
	}

	dir, err := os.MkdirTemp("", "fsim-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "state.fsnap")
	if err := fsim.SaveSnapshot(mt, path); err != nil {
		panic(err)
	}

	warm, err := fsim.LoadSnapshot(path) // no Compute: an I/O-bound load
	if err != nil {
		panic(err)
	}
	was, _ := mt.Score(ada, rival)
	now, _ := warm.Score(ada, rival)
	fmt.Printf("version %d == %d, score %.2f == %.2f\n",
		mt.Version(), warm.Version(), was, now)
	// Output:
	// version 1 == 1, score 1.00 == 1.00
}

// ExampleResult_TopK runs a top-k similarity search, the paper's stated
// future-work query mode, directly off a converged result.
func ExampleResult_TopK() {
	b := fsim.NewBuilder()
	hub := b.AddNode("user")
	for i := 0; i < 3; i++ {
		b.MustAddEdge(hub, b.AddNode("item"))
	}
	twin := b.AddNode("user")
	for i := 0; i < 3; i++ {
		b.MustAddEdge(twin, b.AddNode("item"))
	}
	loner := b.AddNode("user")
	_ = loner
	g := b.Build()

	res, _ := fsim.Compute(g, g, fsim.DefaultOptions(fsim.BJ))
	for _, r := range res.TopK(hub, 2) {
		fmt.Printf("%d %.2f\n", r.Index, r.Score)
	}
	// Output:
	// 0 1.00
	// 4 1.00
}
