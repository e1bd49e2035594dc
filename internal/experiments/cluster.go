package experiments

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"fsim/internal/cluster"
	"fsim/internal/dataset"
	"fsim/internal/server"
	"fsim/internal/stats"
)

// clusterLoad aggregates one mixed read/write pass against a serving
// topology reached over real loopback HTTP.
type clusterLoad struct {
	// Topology is "single" (one process, reads hit it directly) or
	// "cluster" (reads go through the router, writes forward to the
	// leader and replicate to the followers).
	Topology string `json:"topology"`
	loadRun
}

// lagStats summarizes the replication-lag distribution: for every update
// batch written through the router, the time from the write's 200 (the
// version is live on the leader) until each follower serves that version.
type lagStats struct {
	Samples int     `json:"samples"`
	MeanMs  float64 `json:"mean_ms"`
	P50Ms   float64 `json:"p50_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// clusterReport is the BENCH_cluster.json document.
type clusterReport struct {
	Dataset  string `json:"dataset"`
	Variant  string `json:"variant"`
	MaxIters int    `json:"max_iters"`
	// Transport: every request crosses a real loopback socket (httptest
	// servers), so the numbers include the HTTP stack — and the cluster
	// topology pays one extra hop per read (client → router → replica).
	Transport string `json:"transport"`
	// NumCPU is the honesty denominator: leader, followers and router all
	// share this one machine's cores, so the cluster's aggregate
	// throughput measures the serving stack under replication, not the
	// capacity of added hardware. Production replicas on separate
	// machines add real capacity; this benchmark cannot.
	NumCPU             int           `json:"num_cpu"`
	Followers          int           `json:"followers"`
	Nodes              int           `json:"nodes"`
	Edges              int           `json:"edges"`
	PollMs             float64       `json:"poll_interval_ms"`
	Loads              []clusterLoad `json:"loads"`
	ThroughputVsSingle float64       `json:"throughput_vs_single"`
	ReplicationLag     lagStats      `json:"replication_lag"`
	// ResyncMs is the wall-clock for a killed follower to rejoin: fetch
	// the leader's snapshot over HTTP, load it, and report the leader's
	// current version — the same path a 410 Gone (compacted log) forces.
	ResyncMs      float64 `json:"resync_ms"`
	ResyncVersion uint64  `json:"resync_version"`
}

// Cluster load-tests the replicated serving tier over real loopback
// sockets: a leader, N followers tailing its change log, and a router
// consistent-hashing reads across them, measured against a single-process
// server absorbing the identical mixed workload. Concurrent clients issue
// Zipf-skewed /topk reads (plus a sprinkle of /query) while a writer posts
// update batches at fixed points of the read progress; every write through
// the router also samples replication lag — the time until each follower
// serves the written version. After the load, one follower is killed and
// restarted to time the snapshot re-sync path. All processes share one
// machine's CPUs (NumCPU is recorded in the report), so the comparison
// isolates the cost of the replication stack — the extra router hop and
// the change-log tailing — not the capacity gain of real added hardware.
// Writes BENCH_cluster.json (in Config.JSONDir, default the working
// directory).
func Cluster(cfg Config) error {
	_, opts := servedOptions(cfg)

	scale, followers, clients, reads, batches, batchSize, hot := 90, 2, 16, 300, 6, 4, 32
	pollInterval := 5 * time.Millisecond
	if cfg.Quick {
		scale, clients, reads, batches, batchSize, hot = 240, 4, 20, 2, 2, 8
	}

	spec := dataset.MustPaperSpec("NELL", scale)
	spec.Seed += cfg.Seed
	g := spec.Generate()

	// Pre-generate the update batches once so both topologies absorb the
	// identical write stream.
	allBatches, err := updateBatches(g, 23+cfg.Seed, batches+1, batchSize) // +1: the post-kill batch for the re-sync phase
	if err != nil {
		return err
	}
	loadBatches := allBatches[:batches]

	report := clusterReport{
		Dataset: "NELL stand-in", Variant: opts.Variant.String(), MaxIters: opts.MaxIters,
		Transport: "HTTP over loopback sockets",
		NumCPU:    runtime.NumCPU(), Followers: followers,
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
		PollMs: float64(pollInterval) / float64(time.Millisecond),
	}

	httpClient := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 4}}

	// Single-process baseline: one server, reads hit it directly.
	single, err := server.New(g, opts, server.Options{MaxInFlight: -1})
	if err != nil {
		return err
	}
	mix := hotReads(hotCenters(g, hot))
	singleTS := httptest.NewServer(single)
	singleLoad, err := runLoad(overHTTP(httpClient, singleTS.URL), clients, reads, mix, loadBatches, nil)
	singleTS.Close()
	if err != nil {
		return err
	}
	report.Loads = append(report.Loads, clusterLoad{Topology: "single", loadRun: singleLoad})

	// The replicated tier: leader + followers + router, every hop a real
	// loopback socket.
	// MaxInFlight -1 everywhere: the experiment measures throughput, and
	// on a shared-CPU runner the default admission limit would answer part
	// of the load with 429 instead of serving it.
	leader, err := server.New(g, opts, server.Options{Role: server.RoleLeader, MaxInFlight: -1})
	if err != nil {
		return err
	}
	leaderTS := httptest.NewServer(leader)
	defer leaderTS.Close()

	type replica struct {
		f  *cluster.Follower
		ts *httptest.Server
	}
	fleet := make([]replica, followers)
	var replicaURLs []string
	for i := range fleet {
		f, err := cluster.StartFollower(context.Background(), cluster.FollowerOptions{
			Leader:       leaderTS.URL,
			PollInterval: pollInterval,
			Server:       server.Options{MaxInFlight: -1},
			HTTP:         httpClient,
		})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(f)
		fleet[i] = replica{f: f, ts: ts}
		replicaURLs = append(replicaURLs, ts.URL)
		defer func(r replica) { r.ts.Close(); r.f.Close(context.Background()) }(fleet[i])
	}

	router, err := cluster.NewRouter(cluster.RouterOptions{
		Leader:         leaderTS.URL,
		Replicas:       replicaURLs,
		HealthInterval: 20 * time.Millisecond,
		RetryWait:      time.Millisecond,
		HTTP:           httpClient,
	})
	if err != nil {
		return err
	}
	defer router.Close()
	routerTS := httptest.NewServer(router)
	defer routerTS.Close()
	if err := waitFor("the router to see every follower healthy", clusterWait, func() bool {
		return router.Ring().HealthyCount() >= followers
	}); err != nil {
		return err
	}

	// Every write samples replication lag: wait until each follower
	// serves the written version. onWrite runs on runLoad's writer alone,
	// and lagMs is read only after runLoad returns.
	var lagMs []float64
	onWrite := func(version uint64, wrote time.Time) error {
		for i, r := range fleet {
			if err := waitFor(fmt.Sprintf("follower %d to serve version %d", i, version), clusterWait, func() bool {
				return r.f.Version() >= version
			}); err != nil {
				return err
			}
			lagMs = append(lagMs, float64(time.Since(wrote))/float64(time.Millisecond))
		}
		return nil
	}
	clusterLoadRun, err := runLoad(overHTTP(httpClient, routerTS.URL), clients, reads, mix, loadBatches, onWrite)
	if err != nil {
		return err
	}
	report.Loads = append(report.Loads, clusterLoad{Topology: "cluster", loadRun: clusterLoadRun})
	if singleLoad.ThroughputRPS > 0 {
		report.ThroughputVsSingle = clusterLoadRun.ThroughputRPS / singleLoad.ThroughputRPS
	}
	report.ReplicationLag = summarizeLag(lagMs)

	// Re-sync: kill a follower, advance the leader past it, and time a
	// cold rejoin through the snapshot endpoint up to the leader's
	// current version.
	fleet[0].ts.Close()
	if err := fleet[0].f.Close(context.Background()); err != nil {
		return err
	}
	if _, err := send(overHTTP(httpClient, leaderTS.URL), updates(allBatches[batches])); err != nil {
		return err
	}
	target := leader.Maintainer().Version()
	t0 := time.Now()
	reborn, err := cluster.StartFollower(context.Background(), cluster.FollowerOptions{
		Leader:       leaderTS.URL,
		PollInterval: pollInterval,
		Server:       server.Options{MaxInFlight: -1},
		HTTP:         httpClient,
	})
	if err != nil {
		return err
	}
	if err := waitFor(fmt.Sprintf("the restarted follower to re-sync to version %d", target), clusterWait, func() bool {
		return reborn.Version() >= target
	}); err != nil {
		reborn.Close(context.Background())
		return err
	}
	report.ResyncMs = float64(time.Since(t0)) / float64(time.Millisecond)
	report.ResyncVersion = reborn.Version()
	if err := reborn.Close(context.Background()); err != nil {
		return err
	}

	tab := &table{headers: []string{"topology", "requests", "updates", "throughput", "mean latency", "vs single"}}
	for _, l := range report.Loads {
		vs := "-"
		if l.Topology == "cluster" && report.ThroughputVsSingle > 0 {
			vs = fmt.Sprintf("%.2fx", report.ThroughputVsSingle)
		}
		tab.add(l.Topology, fmt.Sprint(l.Requests), fmt.Sprint(l.UpdateChanges),
			fmt.Sprintf("%.0f req/s", l.ThroughputRPS),
			fmt.Sprintf("%.3fms", l.MeanLatencyMs), vs)
	}
	tab.write(cfg.out())
	fmt.Fprintf(cfg.out(), "replication lag: mean %.2fms p50 %.2fms max %.2fms over %d samples; re-sync to v%d in %.1fms (NumCPU=%d, shared)\n",
		report.ReplicationLag.MeanMs, report.ReplicationLag.P50Ms, report.ReplicationLag.MaxMs,
		report.ReplicationLag.Samples, report.ResyncVersion, report.ResyncMs, report.NumCPU)

	return writeReport(cfg, "BENCH_cluster.json", report)
}

// clusterWait bounds every wait in the cluster experiment. A healthy
// tier at full size settles in milliseconds; the bound only turns a
// follower that never catches up into an error instead of a hang.
const clusterWait = time.Minute

// waitFor polls cond until it holds, or returns an error naming what it
// waited for once timeout has passed.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: gave up after %v waiting for %s", timeout, what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// summarizeLag reduces the per-(batch, follower) lag samples to the
// distribution the report carries.
func summarizeLag(ms []float64) lagStats {
	if len(ms) == 0 {
		return lagStats{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	return lagStats{
		Samples: len(sorted),
		MeanMs:  stats.Mean(sorted),
		P50Ms:   sorted[len(sorted)/2],
		MaxMs:   sorted[len(sorted)-1],
	}
}
