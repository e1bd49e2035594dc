// Package nodesim implements the node-similarity case study of the paper's
// §5.4 (Tables 7 and 8): venue similarity on a DBIS-style bibliographic
// network, comparing FSimb/FSimbj against re-implementations of PCRW,
// PathSim, JoinSim and nSimGram, evaluated by top-k inspection and nDCG
// against a graded relevance ground truth (research area + venue tier).
package nodesim

import (
	"fmt"
	"math/rand"

	"fsim/internal/graph"
)

// Network is a synthetic DBIS-like heterogeneous bibliographic graph:
// author → paper → venue edges; venues labeled "V", papers "P", authors by
// their (unique) names. The real DBIS download is unavailable offline; the
// generator plants the structures Tables 7–8 test for — research areas,
// venue tiers, and duplicate venue identities (WWW1/WWW2/WWW3 mirroring
// WWW's community).
type Network struct {
	G *graph.Graph
	// Venues lists the venue nodes; VenueName/VenueArea/VenueTier are
	// aligned with it (tier 0 = top, 1 = second tier).
	Venues    []graph.NodeID
	VenueName []string
	VenueArea []int
	VenueTier []int
	// Subjects indexes into Venues: the 15 subject venues evaluated by
	// Table 8's nDCG.
	Subjects []int
}

// venueSpec seeds the generator's venue population. Areas: 0=DB, 1=DM,
// 2=IR/Web, 3=AI, 4=SE. The WWW duplicates model DBIS's multiple node ids
// for one venue.
var venueSpecs = []struct {
	name string
	area int
	tier int
}{
	{"VLDB", 0, 0}, {"SIGMOD", 0, 0}, {"ICDE", 0, 0}, {"CIKM", 0, 1}, {"EDBT", 0, 1}, {"DASFAA", 0, 1},
	{"SIGKDD", 1, 0}, {"ICDM", 1, 0}, {"WSDM", 1, 1}, {"PAKDD", 1, 1}, {"SDM", 1, 1},
	{"WWW", 2, 0}, {"WWW1", 2, 0}, {"WWW2", 2, 0}, {"WWW3", 2, 0}, {"SIGIR", 2, 0}, {"WISE", 2, 1}, {"Hypertext", 2, 1},
	{"AAAI", 3, 0}, {"IJCAI", 3, 0}, {"ICML", 3, 0}, {"ECAI", 3, 1}, {"UAI", 3, 1},
	{"ICSE", 4, 0}, {"FSE", 4, 0}, {"ASE", 4, 1}, {"ISSRE", 4, 1},
}

// subjectNames are the Table 8 subject venues (top-tier representatives).
var subjectNames = []string{
	"VLDB", "SIGMOD", "ICDE", "SIGKDD", "ICDM", "WWW", "SIGIR",
	"AAAI", "IJCAI", "ICML", "ICSE", "FSE", "CIKM", "WSDM", "WISE",
}

// Params sizes the generator.
type Params struct {
	Authors         int
	PapersPerAuthor int
	Seed            int64
}

// DefaultParams returns the evaluation sizing: large enough that venue
// neighborhoods are statistically distinct, small enough for a 1-core box.
func DefaultParams() Params {
	return Params{Authors: 420, PapersPerAuthor: 5, Seed: 99}
}

// Generate builds the network. Each author belongs to a home area and
// publishes mostly in home-area venues weighted toward the top tier;
// cross-area publishing happens at a small rate (making related areas
// confusable, as in real data). Papers sent to WWW are probabilistically
// redirected to the WWW1/WWW2/WWW3 duplicates so the duplicates share WWW's
// author community.
func Generate(p Params) *Network {
	rng := rand.New(rand.NewSource(p.Seed))
	b := graph.NewBuilder()
	net := &Network{}

	for _, vs := range venueSpecs {
		id := b.AddNode("V")
		net.Venues = append(net.Venues, id)
		net.VenueName = append(net.VenueName, vs.name)
		net.VenueArea = append(net.VenueArea, vs.area)
		net.VenueTier = append(net.VenueTier, vs.tier)
	}
	for _, name := range subjectNames {
		for i, vn := range net.VenueName {
			if vn == name {
				net.Subjects = append(net.Subjects, i)
				break
			}
		}
	}

	// Venue index by area/tier for sampling.
	byArea := map[int][]int{}
	for i := range net.Venues {
		if net.VenueName[i] == "WWW1" || net.VenueName[i] == "WWW2" || net.VenueName[i] == "WWW3" {
			continue // duplicates are only reached via redirection from WWW
		}
		byArea[net.VenueArea[i]] = append(byArea[net.VenueArea[i]], i)
	}
	wwwIdx := -1
	dupIdx := []int{}
	for i, n := range net.VenueName {
		switch n {
		case "WWW":
			wwwIdx = i
		case "WWW1", "WWW2", "WWW3":
			dupIdx = append(dupIdx, i)
		}
	}

	nAreas := 5
	authors := make([]graph.NodeID, p.Authors)
	authorArea := make([]int, p.Authors)
	authorHome := make([]int, p.Authors) // home venue (community anchor)
	// Per-home-venue author pools for community-local coauthorship.
	var homePool map[int][]int

	pickVenue := func(area int) int {
		// 85% home area; otherwise a uniformly random area.
		if rng.Float64() >= 0.85 {
			area = rng.Intn(nAreas)
		}
		cands := byArea[area]
		// Top-tier venues attract twice the submissions.
		for {
			i := cands[rng.Intn(len(cands))]
			if net.VenueTier[i] == 0 || rng.Float64() < 0.5 {
				return i
			}
		}
	}

	homePool = map[int][]int{}
	for a := 0; a < p.Authors; a++ {
		authors[a] = b.AddNode(fmt.Sprintf("author-%03d", a))
		authorArea[a] = a % nAreas
		authorHome[a] = pickVenue(authorArea[a])
		homePool[authorHome[a]] = append(homePool[authorHome[a]], a)
	}

	for a := 0; a < p.Authors; a++ {
		for k := 0; k < p.PapersPerAuthor; k++ {
			paper := b.AddNode("P")
			b.MustAddEdge(authors[a], paper)
			// 1–2 coauthors, preferring the author's home-venue community
			// (prolific communities are what make duplicate venue ids
			// recognizably similar in real DBIS).
			co := rng.Intn(2) + 1
			for c := 0; c < co; c++ {
				var other int
				if pool := homePool[authorHome[a]]; len(pool) > 1 && rng.Float64() < 0.6 {
					other = pool[rng.Intn(len(pool))]
				} else {
					other = rng.Intn(p.Authors/nAreas)*nAreas + authorArea[a]
					if other >= p.Authors {
						other = authorArea[a]
					}
				}
				if authors[other] != authors[a] {
					b.MustAddEdge(authors[other], paper)
				}
			}
			// 60% of papers go to the author's home venue; the rest follow
			// the area-tier distribution.
			vi := authorHome[a]
			if rng.Float64() >= 0.6 {
				vi = pickVenue(authorArea[a])
			}
			// WWW papers spread evenly over the venue's duplicate node ids
			// (as in DBIS, where one venue appears under several ids with
			// comparable volume), so the duplicates are equal-sized samples
			// of the same author community.
			if vi == wwwIdx && len(dupIdx) > 0 {
				if pick := rng.Intn(len(dupIdx) + 1); pick < len(dupIdx) {
					vi = dupIdx[pick]
				}
			}
			b.MustAddEdge(paper, net.Venues[vi])
		}
	}
	net.G = b.Build()
	return net
}

// VenueIndex returns the index of a venue by display name, or -1.
func (n *Network) VenueIndex(name string) int {
	for i, vn := range n.VenueName {
		if vn == name {
			return i
		}
	}
	return -1
}

// Relevance grades venue y with respect to subject venue x following the
// paper's protocol ("considering both the research area and venue ranking"):
// 2 = same area and same tier (very relevant), 1 = same area different
// tier (somewhat relevant), 0 = different area.
func (n *Network) Relevance(x, y int) float64 {
	if n.VenueArea[x] != n.VenueArea[y] {
		return 0
	}
	if n.VenueTier[x] == n.VenueTier[y] {
		return 2
	}
	return 1
}
