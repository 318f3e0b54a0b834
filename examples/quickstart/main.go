// Quickstart: build a small signed network by hand, ask which users
// are compatible under the different relations, and form a team.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	signedteams "repro"
)

func main() {
	// A small engineering org. Positive edges are good working
	// relationships, negative edges are known conflicts.
	//
	//	ada(0) ─+─ ben(1) ─+─ cai(2)
	//	  │                   │
	//	  └───────── − ───────┘        ada and cai clashed before
	//	  ada ─+─ dee(3) ─+─ cai       ...but share a good colleague dee
	people := []string{"ada", "ben", "cai", "dee"}
	g := signedteams.MustFromEdges(4, []signedteams.Edge{
		{U: 0, V: 1, Sign: signedteams.Positive},
		{U: 1, V: 2, Sign: signedteams.Positive},
		{U: 0, V: 2, Sign: signedteams.Negative},
		{U: 0, V: 3, Sign: signedteams.Positive},
		{U: 3, V: 2, Sign: signedteams.Positive},
	})
	fmt.Printf("network: %d people, %d ties (%d negative)\n\n",
		g.NumNodes(), g.NumEdges(), g.NumNegativeEdges())

	// Compatibility of ada and cai under every relation: they share a
	// negative edge, so every relation refuses the pair — the
	// negative-edge incompatibility axiom.
	fmt.Println("ada vs cai (direct foes):")
	for _, kind := range signedteams.RelationKinds() {
		rel, err := signedteams.NewRelation(kind, g, signedteams.RelationOptions{})
		if err != nil {
			log.Fatal(err)
		}
		ok, err := rel.Compatible(0, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4v compatible=%v\n", kind, ok)
	}

	// ben and dee are not directly connected; the relations infer
	// their compatibility from path signs.
	fmt.Println("\nben vs dee (connected through ada, one clash in the triangle):")
	for _, kind := range signedteams.RelationKinds() {
		rel, err := signedteams.NewRelation(kind, g, signedteams.RelationOptions{})
		if err != nil {
			log.Fatal(err)
		}
		ok, err := rel.Compatible(1, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-4v compatible=%v\n", kind, ok)
	}

	// Team formation: cover {backend, frontend} with a compatible team.
	univ, err := signedteams.NewUniverse([]string{"backend", "frontend"})
	if err != nil {
		log.Fatal(err)
	}
	assign := signedteams.NewAssignment(univ, 4)
	assign.MustAdd(0, 0) // ada: backend
	assign.MustAdd(2, 1) // cai: frontend
	assign.MustAdd(3, 1) // dee: frontend

	rel, err := signedteams.NewRelation(signedteams.SPO, g, signedteams.RelationOptions{})
	if err != nil {
		log.Fatal(err)
	}
	team, err := signedteams.FormTeam(rel, assign, signedteams.NewTask(0, 1), signedteams.FormOptions{
		Skill: signedteams.LeastCompatibleFirst,
		User:  signedteams.MinDistance,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nteam for {backend, frontend} under SPO (diameter %d):\n", team.Cost)
	for _, m := range team.Members {
		fmt.Printf("  %s\n", people[m])
	}
	// ada+cai would be closer (distance 1) but they are foes; the
	// algorithm picks ada+dee instead.
}
