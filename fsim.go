// Package fsim is the public API of this repository: a Go implementation
// of "A Framework to Quantify Approximate Simulation on Graph Data"
// (Chen, Lai, Qin, Lin, Liu; ICDE 2021, arXiv:2010.08938).
//
// The library quantifies, for every pair of nodes (u, v) across two
// node-labeled directed graphs, the degree FSimχ(u, v) ∈ [0, 1] to which u
// is approximately χ-simulated by v, for four simulation variants χ:
//
//   - Simple simulation (S): every neighbor of u must be simulated by some
//     neighbor of v.
//   - Degree-preserving simulation (DP): the neighbor mapping must be
//     injective.
//   - Bisimulation (B): the converse relation must also be a simulation.
//   - Bijective simulation (BJ): the neighbor mapping must be bijective
//     (the paper's new variant, as discriminating as the Weisfeiler-Lehman
//     test).
//
// Quick start:
//
//	b := fsim.NewBuilder()
//	u := b.AddNode("person")
//	p := b.AddNode("post")
//	b.MustAddEdge(u, p)
//	g := b.Build()
//	res, err := fsim.Compute(g, g, fsim.DefaultOptions(fsim.BJ))
//	score := res.Score(u, u) // 1.0
//
// # Convergence modes
//
// Compute iterates Equation 3 to its fixed point on a worklist and stops
// when the maximum score change drops below Options.Epsilon. The first
// round recomputes every candidate pair; afterwards a pair is recomputed
// only when a pair its update reads — a neighbor pair under the reverse
// candidate adjacency — changed in the previous round (or every pair, when
// most of them changed). A skipped pair's inputs are unchanged, so its
// score would be too: scores, per-iteration deltas and the iteration count
// are bit-identical to recomputing every pair every round. On selective
// candidate maps (Options.Theta, Options.UpperBoundOpt) most pairs leave
// the worklist after a few rounds.
//
// Options.DeltaMode adds an approximate stability threshold: a pair whose
// score changed by at most Options.DeltaEps does not reactivate its
// dependents. DeltaEps = 0 (the default) keeps the run exact. A small
// positive DeltaEps (e.g. 1e-4) freezes pairs that have effectively
// stopped moving, collapsing the frontier at the price of a bounded score
// perturbation (on the order of DeltaEps·(w⁺+w⁻)/(1−w⁺−w⁻) for the
// monotonically converging variants); use it for large graphs with tight
// epsilons, where most pairs stabilize rounds before the slowest ones.
// Under DeltaMode, Result.ActivePairs records the per-iteration worklist
// sizes so the saving is observable.
//
// # Querying
//
// Serving workloads that need the best matches of individual nodes rather
// than the full score matrix should build a reusable Index with NewIndex:
// queries (Index.TopK, Index.Query) run a localized fixed point over only
// the pairs reachable from the query frontier — on the same executor as
// Compute, restricted to those pairs — returning the same scores and
// rankings as Compute. The index is immutable and safe for concurrent
// queries; locality — and therefore per-query speedup — comes from
// candidate selectivity (Options.Theta, Options.UpperBoundOpt). See the
// README's "Querying" section.
//
// # Dynamic graphs
//
// Graphs that change under serving traffic should not pay a full Compute
// per update. A Maintainer (NewMaintainer) keeps the converged
// self-similarity scores of an evolving graph incrementally: applying a
// batch of changes (edge insertions/deletions, node insertions) patches
// the candidate structures in place and re-converges only the update's
// cone of influence through the worklist, instead of recomputing
// from scratch. Incremental maintenance wins exactly when the candidate
// map is selective (Options.Theta, Options.UpperBoundOpt) so the cone
// stays local; on a θ = 0 all-pairs universe the cone saturates and the
// Maintainer honestly falls back to a full recompute. See the README's
// "Dynamic graphs" section and the internal/dynamic package comment.
//
// # Serving
//
// NewServer puts a Maintainer behind an HTTP JSON API for concurrent
// traffic: reads (GET /topk, GET /query) answer from the maintained
// scores through a graph-version-stamped result cache with singleflight
// coalescing, writes (POST /updates) stream update batches into the
// maintainer, and every response carries the graph version its scores
// belong to — always exactly the scores a fresh Compute on that snapshot
// would return. See the README's "Serving" section for the endpoints, the
// consistency contract and the tuning knobs.
//
// Exact ("yes-or-no") χ-simulation checks, strong simulation,
// k-bisimulation signatures and the WL test live alongside the fractional
// framework; SimRank and RoleSim are available as framework presets
// (paper §4.3). The subpackages under internal/ implement the evaluation
// substrates (synthetic datasets, pattern matching, node similarity and
// graph alignment case studies); the cmd/fsimbench binary regenerates
// every table and figure of the paper, and the bench module's fsimperf
// measures the serving layers.
package fsim

import (
	"context"
	"io"

	"fsim/internal/cluster"
	"fsim/internal/core"
	"fsim/internal/dynamic"
	"fsim/internal/exact"
	"fsim/internal/graph"
	"fsim/internal/query"
	"fsim/internal/server"
	"fsim/internal/snapshot"
	"fsim/internal/stats"
	"fsim/internal/strsim"
)

// Graph is a node-labeled directed graph (immutable; build via Builder).
type Graph = graph.Graph

// Builder accumulates nodes and edges for a Graph.
type Builder = graph.Builder

// NodeID identifies a node within one Graph.
type NodeID = graph.NodeID

// Subgraph is an induced subgraph with parent-id mappings.
type Subgraph = graph.Subgraph

// NewBuilder returns an empty graph builder.
func NewBuilder() *Builder { return graph.NewBuilder() }

// ReadGraphFile parses a graph from the line-oriented text format
// ("n <label>" / "e <u> <v>").
func ReadGraphFile(path string) (*Graph, error) { return graph.ReadFile(path) }

// Variant identifies a χ-simulation variant.
type Variant = exact.Variant

// The four χ-simulation variants of the paper (Definitions 2 and 3).
const (
	S  = exact.S
	DP = exact.DP
	B  = exact.B
	BJ = exact.BJ
)

// Variants lists all four variants in paper order.
var Variants = exact.Variants

// ParseVariant maps "s", "dp", "b", "bj" to a Variant.
func ParseVariant(s string) (Variant, error) { return exact.ParseVariant(s) }

// Options configures a fractional χ-simulation computation.
type Options = core.Options

// UpperBound configures §3.4's upper-bound pruning optimization.
type UpperBound = core.UpperBound

// Operators is the mapping/normalizing operator bundle of Equation 2 —
// the framework's extension point (§4.3).
type Operators = core.Operators

// Result holds converged FSimχ scores and computation diagnostics.
type Result = core.Result

// DefaultOptions returns the paper's experimental defaults (§5.1):
// w⁺ = w⁻ = 0.4, Jaro-Winkler labels, relative convergence at 0.01.
func DefaultOptions(v Variant) Options { return core.DefaultOptions(v) }

// OperatorsFor returns Table 3's operator configuration for a variant.
func OperatorsFor(v Variant) Operators { return core.OperatorsFor(v) }

// Compute runs the FSimχ framework over (g1, g2) and returns the
// fractional χ-simulation scores of all maintained node pairs.
func Compute(g1, g2 *Graph, opts Options) (*Result, error) { return core.Compute(g1, g2, opts) }

// Ranked is one (node, score) entry of a top-k ranking, in descending
// score order with ties broken by ascending node id.
type Ranked = stats.Ranked

// Index answers single-source FSimχ queries — TopK similarity searches and
// single-pair score lookups — over a fixed graph pair without computing
// the full all-pairs fixed point. It is built once via NewIndex and is
// safe for any number of concurrent callers; see the "Querying" section of
// the README.
type Index = query.Index

// QueryStats reports one query's localized-computation diagnostics
// (frontier size, dependency-closure size, iterations).
type QueryStats = query.Stats

// NewIndex builds a reusable query index over (g1, g2): the candidate map,
// label-similarity cache and §3.4 upper bounds shared with Compute, but no
// score iteration. Queries then run a localized fixed point over only the
// pairs their frontier reaches:
//
//	ix, err := fsim.NewIndex(g1, g2, fsim.DefaultOptions(fsim.BJ))
//	top, err := ix.TopK(u, 10)   // ranking identical to Compute + Result.TopK
//	s, err := ix.Query(u, v)     // score identical to Result.Score(u, v)
func NewIndex(g1, g2 *Graph, opts Options) (*Index, error) { return query.New(g1, g2, opts) }

// Mutable is an editable graph: node and edge mutations in O(degree) with
// an append-only change log, and O(|V|+|E|) snapshots into the immutable
// Graph. Graph.Apply edits an immutable Graph directly, with the same
// semantics, into a new Graph; it is what a Maintainer uses.
type Mutable = graph.Mutable

// NewMutable returns an empty mutable graph.
func NewMutable() *Mutable { return graph.NewMutable() }

// MutableOf returns an independent mutable copy of g; node and label ids
// carry over unchanged.
func MutableOf(g *Graph) *Mutable { return graph.MutableOf(g) }

// Change is one graph mutation ("+n <label>" / "+e <u> <v>" / "-e <u> <v>"
// in the update-stream text form).
type Change = graph.Change

// ChangeOp identifies a Change's kind.
type ChangeOp = graph.ChangeOp

// The mutation kinds of the update-stream format.
const (
	OpAddNode    = graph.OpAddNode
	OpAddEdge    = graph.OpAddEdge
	OpRemoveEdge = graph.OpRemoveEdge
)

// ParseChange parses one update-stream line.
func ParseChange(line string) (Change, error) { return graph.ParseChange(line) }

// ReadChanges parses an update stream (one change per line; blank lines
// and "#" comments skipped).
func ReadChanges(r io.Reader) ([]Change, error) { return graph.ReadChanges(r) }

// Maintainer incrementally maintains the self-similarity FSimχ scores of
// an evolving graph: Apply mutates and re-converges only the update's
// cone of influence, Score/TopK read the maintained result (ScoreAt/TopKAt
// also return the graph version read), and Index exposes the live query
// index that re-converges updates. Safe for concurrent readers.
type Maintainer = dynamic.Maintainer

// MaintainStats reports one Maintainer.Apply's diagnostics (seed pairs,
// cone and closure sizes, fallback flags, duration).
type MaintainStats = dynamic.Stats

// NewMaintainer computes the initial fixed point of g against itself and
// returns a Maintainer holding it:
//
//	mt, err := fsim.NewMaintainer(g, opts)
//	st, err := mt.Apply([]fsim.Change{{Op: fsim.OpAddEdge, U: u, V: v}})
//	score, err := mt.Score(u, v) // identical to a fresh Compute on the mutated graph
func NewMaintainer(g *Graph, opts Options) (*Maintainer, error) { return dynamic.New(g, opts) }

// Server is the HTTP JSON serving layer over a live Maintainer. Reads are
// served by registered workloads — GET /topk and GET /query (similarity,
// read from the maintained scores), POST /match (pattern matching), POST
// /align (graph alignment), GET /nodesim (pairwise node similarity) — all
// through one graph-version-stamped result cache with singleflight
// coalescing and admission control; POST /updates absorbs update-stream
// batches, GET /healthz and GET /stats expose liveness and per-endpoint
// serving counters. Every read response is stamped with the graph version
// it was computed at, and its result is exactly what the underlying
// library call on that snapshot would produce. Mount it on any
// http.Server and stop it with Shutdown; see the README's "Serving" and
// "Served scenarios" sections.
type Server = server.Server

// ServerOptions tunes the serving layer: result-cache size and sharding,
// request coalescing, the in-flight computation limit behind 429
// admission control, the update-body cap, and crash-safe checkpointing
// (SnapshotPath + CheckpointEvery) for warm restarts.
type ServerOptions = server.Options

// NewServer computes the initial fixed point of g against itself (the
// expensive part of startup) and returns a Server serving it:
//
//	srv, err := fsim.NewServer(g, opts, fsim.ServerOptions{})
//	http.ListenAndServe(":8080", srv)
func NewServer(g *Graph, opts Options, sopts ServerOptions) (*Server, error) {
	return server.New(g, opts, sopts)
}

// NewServerFromMaintainer wraps an existing Maintainer instead of building
// one. The server takes ownership: it registers the maintainer's apply
// hook for cache invalidation and closes the maintainer on Shutdown.
func NewServerFromMaintainer(mt *Maintainer, sopts ServerOptions) *Server {
	return server.NewFromMaintainer(mt, sopts)
}

// Workload is one served scenario: its route metadata (Spec) plus the
// request-scoped preparation that yields a cache key and a compute
// closure. Registered workloads ride the server's shared cache,
// coalescing, admission control, and per-endpoint counters, and the
// cluster router learns their routes and shard keys from the registry —
// a new endpoint needs no server or router changes.
type Workload = server.Workload

// WorkloadSpec is a workload's registry metadata: name, route, method,
// admission class, and the query parameters the cluster router shards by.
type WorkloadSpec = server.WorkloadSpec

// RegisterWorkload adds a workload to the serving registry (call from an
// init function, before servers are constructed). It panics on name or
// path collisions, like database/sql.Register.
func RegisterWorkload(w Workload) { server.Register(w) }

// ServerEndpoints lists every registered workload's route metadata — what
// a router needs to build its forwarding table.
func ServerEndpoints() []server.EndpointInfo { return server.Endpoints() }

// ErrMaintainerClosed is returned by Maintainer.Apply after Close (for a
// Server: after Shutdown has drained it).
var ErrMaintainerClosed = dynamic.ErrClosed

// ServerRole selects a Server's place in a replicated tier (see the
// README's "Replication & sharding" section): RoleSingle is the default
// standalone server; RoleLeader additionally retains a bounded versioned
// change log and serves it to replicas via GET /changes and GET
// /snapshot; RoleFollower refuses external writes and reports replication
// lag through GET /readyz.
type ServerRole = server.Role

// The serving-tier roles.
const (
	RoleSingle   = server.RoleSingle
	RoleLeader   = server.RoleLeader
	RoleFollower = server.RoleFollower
)

// VersionHeader is the response header every read and write carries: the
// graph version the body was computed at. Clients use it as their
// read-your-writes token (see MinVersionHeader).
const VersionHeader = server.VersionHeader

// MinVersionHeader is the request header a client sets on router reads to
// enforce read-your-writes: the router only relays a replica response
// computed at this version or newer.
const MinVersionHeader = cluster.MinVersionHeader

// Follower is a read replica of a leader Server: it warm-starts from a
// leader snapshot (over HTTP, or from a shared file), tails the leader's
// change log, and applies every version step through the same incremental
// maintenance the leader ran — so the scores it serves are bit-identical
// to the leader's at the stamped version. It is an http.Handler; mount it
// like a Server.
type Follower = cluster.Follower

// FollowerOptions configures a Follower (leader URL, warm-start snapshot
// path, poll cadence, readiness lag bound, embedded-server options).
type FollowerOptions = cluster.FollowerOptions

// StartFollower builds a replica of the configured leader and starts its
// replication loop. Stop it with Follower.Close.
func StartFollower(ctx context.Context, opts FollowerOptions) (*Follower, error) {
	return cluster.StartFollower(ctx, opts)
}

// Router is the replicated tier's front door: an http.Handler that
// consistent-hashes GET /topk and /query across follower replicas by the
// query node u, forwards POST /updates to the leader, enforces
// read-your-writes via MinVersionHeader, and ejects/readmits replicas on
// readiness-probe transitions.
type Router = cluster.Router

// RouterOptions configures a Router (leader URL, replica URLs, probe
// cadence, retry policy).
type RouterOptions = cluster.RouterOptions

// NewRouter validates opts and starts the router's health-probe loop.
// Stop it with Router.Close.
func NewRouter(opts RouterOptions) (*Router, error) { return cluster.NewRouter(opts) }

// WarmStart loads the Maintainer checkpointed at path with the serving
// tier's cold-start contract: an empty path or an absent file returns
// (nil, nil) — cold start — while any other failure, corruption included,
// is an error (never a silent cold start over a damaged snapshot).
func WarmStart(path string) (*Maintainer, error) { return server.WarmStart(path) }

// SaveSnapshot atomically persists a Maintainer's complete state — the
// CSR graph with labels, the candidate component with its §3.4 bounds,
// the maintained scores and the graph version — as a crash-safe
// binary snapshot (temporary file + rename, per-section checksums).
// LoadSnapshot restores it without re-running the fixed point, which is
// what turns a serving restart from minutes of Compute into an I/O-bound
// load; see the README's "Snapshots & warm start" section.
//
// Options with function-valued fields cannot be persisted: Options.Label
// must be one of JaroWinkler, Indicator or NormalizedEditDistance.
func SaveSnapshot(mt *Maintainer, path string) error { return snapshot.Save(mt, path) }

// LoadSnapshot reconstructs a Maintainer from a snapshot file. Corrupted
// or truncated snapshots are rejected with an error wrapping
// ErrSnapshotCorrupt; the loader never returns a silently-wrong state. A
// snapshot of another format version is rejected with an error naming
// both versions; cold-start from the graph text instead.
func LoadSnapshot(path string) (*Maintainer, error) { return snapshot.Load(path) }

// WriteSnapshot and ReadSnapshot are the io.Writer/io.Reader forms of
// SaveSnapshot/LoadSnapshot, without the atomic-rename file handling.
func WriteSnapshot(mt *Maintainer, w io.Writer) error { return snapshot.Write(mt, w) }

// ReadSnapshot reconstructs a Maintainer from a snapshot stream.
func ReadSnapshot(r io.Reader) (*Maintainer, error) { return snapshot.Read(r) }

// ErrSnapshotCorrupt marks a snapshot LoadSnapshot/ReadSnapshot rejected:
// truncated, bit-flipped, or structurally inconsistent.
var ErrSnapshotCorrupt = snapshot.ErrCorrupt

// SimRank computes SimRank via the framework configuration of §4.3.
func SimRank(g *Graph, decay float64, iters int) (*Result, error) {
	return core.SimRank(g, decay, iters)
}

// RoleSim computes RoleSim role similarity via the framework configuration
// of §4.3.
func RoleSim(g *Graph, beta float64, iters int) (*Result, error) {
	return core.RoleSim(g, beta, iters)
}

// Relation is a binary relation R ⊆ V1 × V2 (bitset-backed).
type Relation = exact.Relation

// MaximalSimulation computes the maximal exact χ-simulation relation:
// u ⇝χ v iff the result Contains(u, v).
func MaximalSimulation(g1, g2 *Graph, v Variant) *Relation {
	return exact.MaximalSimulation(g1, g2, v)
}

// Simulated reports the exact check u ⇝χ v.
func Simulated(g1, g2 *Graph, u, v NodeID, variant Variant) bool {
	return exact.Simulated(g1, g2, u, v, variant)
}

// StrongMatch is a strong-simulation match (Ma et al.).
type StrongMatch = exact.StrongMatch

// StrongSimulation computes all strong-simulation matches of query q in g.
func StrongSimulation(q, g *Graph) []*StrongMatch { return exact.StrongSimulation(q, g) }

// KBisimulation computes k-bisimulation signature colors: nodes u, v are
// k-bisimilar iff colors[u] == colors[v] (§4.3, Theorem 4).
func KBisimulation(g *Graph, k int) []exact.Color { return exact.KBisimulation(g, k) }

// WLResult is the outcome of a joint Weisfeiler-Lehman refinement.
type WLResult = exact.WLResult

// WL runs the WL test jointly over two graphs (§4.3, Theorem 5).
func WL(g1, g2 *Graph, maxIter int) *WLResult { return exact.WL(g1, g2, maxIter) }

// Label similarity functions for Options.Label (paper §3.3). Construction
// calls L from Options.Threads goroutines, so a custom L must be safe for
// concurrent use; these three are pure.
var (
	// Indicator is L_I: 1 iff the labels are equal.
	Indicator strsim.Func = strsim.Indicator
	// NormalizedEditDistance is L_E.
	NormalizedEditDistance strsim.Func = strsim.NormalizedEditDistance
	// JaroWinkler is L_J (the paper's default).
	JaroWinkler strsim.Func = strsim.JaroWinkler
)
