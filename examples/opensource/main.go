// Open-source community scenario: a project has split into two
// factions after a governance dispute (think maintainers vs fork
// advocates). Collaboration inside each faction is friendly, across
// factions mostly hostile. A release team must cover skills that only
// exist on opposite sides of the fault line, so whether a compatible
// team exists at all depends on (a) the compatibility relation and
// (b) how many cross-faction friendships survive — the motivating
// scenario of the paper's introduction.
//
//	go run ./examples/opensource
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	signedteams "repro"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// 120 contributors, heavy-tailed activity, two factions sized so
	// that ≈22% of ties are cross-faction.
	const n = 120
	topo, err := signedteams.ChungLu(rng, n, 420, 2.5)
	if err != nil {
		log.Fatal(err)
	}
	topo.Connect(rng)
	camps, err := signedteams.CampsForNegFraction(rng, n, 0.22)
	if err != nil {
		log.Fatal(err)
	}

	// Skills follow the fault line: faction 0 holds the release keys,
	// faction 1 wrote the security tooling; coding is everywhere.
	skillNames := []string{"code", "review", "docs", "ci", "release", "security"}
	univ, err := signedteams.NewUniverse(skillNames)
	if err != nil {
		log.Fatal(err)
	}
	assign := signedteams.NewAssignment(univ, n)
	skillRng := rand.New(rand.NewSource(23))
	for u := 0; u < n; u++ {
		if skillRng.Float64() < 0.5 {
			assign.MustAdd(signedteams.NodeID(u), 0) // code
		}
		if camps[u] == 0 && skillRng.Float64() < 0.25 {
			assign.MustAdd(signedteams.NodeID(u), 4) // release
		}
		if camps[u] == 1 && skillRng.Float64() < 0.10 {
			assign.MustAdd(signedteams.NodeID(u), 5) // security
		}
		if len(assign.UserSkills(signedteams.NodeID(u))) == 0 {
			assign.MustAdd(signedteams.NodeID(u), 0)
		}
	}
	task := signedteams.NewTask(0, 4, 5) // code + release + security
	fmt.Println("task {code, release, security} needs both factions at the table")

	relations := []signedteams.RelationKind{
		signedteams.SPA, signedteams.SPM, signedteams.SPO, signedteams.SBPH, signedteams.NNE,
	}
	// Use the realised inter-faction fraction as the negative-edge
	// target, so the noise-0 signing is *perfectly* balanced (the
	// calibration has nothing to correct).
	inter := 0
	for _, e := range topo.Edges {
		if camps[e[0]] != camps[e[1]] {
			inter++
		}
	}
	natural := float64(inter) / float64(len(topo.Edges))
	for _, noise := range []float64{0, 0.04} {
		signRng := rand.New(rand.NewSource(31))
		edges, err := signedteams.FactionSigns(signRng, topo, camps, natural, noise)
		if err != nil {
			log.Fatal(err)
		}
		g, err := signedteams.FromEdges(n, edges)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- noise %.0f%%: %d negative ties, balanced=%v, frustration=%d\n",
			100*noise, g.NumNegativeEdges(), signedteams.IsBalanced(g), signedteams.Frustration(g))
		fmt.Printf("%-5s  %-6s  %-9s  %s\n", "rel", "found", "diameter", "members")
		for _, kind := range relations {
			rel, err := signedteams.NewRelation(kind, g, signedteams.RelationOptions{})
			if err != nil {
				log.Fatal(err)
			}
			team, err := signedteams.FormTeam(rel, assign, task, signedteams.FormOptions{
				Skill: signedteams.LeastCompatibleFirst,
				User:  signedteams.MinDistance,
			})
			switch {
			case errors.Is(err, signedteams.ErrNoTeam):
				fmt.Printf("%-5v  %-6s\n", kind, "no")
			case err != nil:
				log.Fatal(err)
			default:
				ok, err := signedteams.TeamCompatible(rel, team.Members)
				if err != nil || !ok {
					log.Fatalf("invariant violated: team not compatible (%v)", err)
				}
				fmt.Printf("%-5v  %-6s  %-9d  %v\n", kind, "yes", team.Cost, team.Members)
			}
		}
	}

	fmt.Println()
	fmt.Println("In the perfectly polarised community every cross-faction path is")
	fmt.Println("negative, so only NNE — which merely forbids direct feuds — can")
	fmt.Println("staff the release. A handful of cross-faction friendships (the")
	fmt.Println("noise) is what reopens the door for the path-based relations.")
}
