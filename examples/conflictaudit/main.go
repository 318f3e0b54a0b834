// Conflict audit: a staffing tool that was built for unsigned
// networks keeps proposing teams with internal feuds. This example
// quantifies the problem on the Wikipedia stand-in, reproducing the
// paper's Table 3 argument: run the classic RarestFirst team
// formation on the unsigned projections of a signed network, then
// audit its teams against the signed compatibility relations.
//
//	go run ./examples/conflictaudit
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	signedteams "repro"
)

func main() {
	data, err := signedteams.LoadDataset("wikipedia", 9, 0.08)
	if err != nil {
		log.Fatal(err)
	}
	g, assign := data.Graph, data.Assign
	fmt.Printf("editor network: %d editors, %d interactions (%d negative)\n\n",
		g.NumNodes(), g.NumEdges(), g.NumNegativeEdges())

	// The two ways an unsigned tool "handles" signs (paper, Table 3).
	projections := map[string]*signedteams.Graph{
		"ignore-sign":     g.IgnoreSigns(),
		"delete-negative": g.DeleteNegative(),
	}

	const numTasks, taskSize = 30, 5
	taskRng := rand.New(rand.NewSource(3))
	tasks := make([]signedteams.Task, 0, numTasks)
	for i := 0; i < numTasks; i++ {
		task, err := signedteams.RandomTask(taskRng, assign, taskSize)
		if err != nil {
			log.Fatal(err)
		}
		tasks = append(tasks, task)
	}

	relations := []signedteams.RelationKind{
		signedteams.SPA, signedteams.SPM, signedteams.SPO, signedteams.SBPH, signedteams.NNE,
	}
	for _, projName := range []string{"ignore-sign", "delete-negative"} {
		proj := projections[projName]
		var teams [][]signedteams.NodeID
		for _, task := range tasks {
			tm, err := signedteams.RarestFirstUnsigned(proj, assign, task)
			if errors.Is(err, signedteams.ErrNoTeam) {
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			teams = append(teams, tm.Members)
		}
		fmt.Printf("projection %-16s (%d teams formed):\n", projName, len(teams))
		for _, kind := range relations {
			rel, err := signedteams.NewRelation(kind, g, signedteams.RelationOptions{
				CacheCap: g.NumNodes() + 1,
			})
			if err != nil {
				log.Fatal(err)
			}
			okCount := 0
			for _, members := range teams {
				ok, err := signedteams.TeamCompatible(rel, members)
				if err != nil {
					log.Fatal(err)
				}
				if ok {
					okCount++
				}
			}
			fmt.Printf("  %-4v  %2d/%d teams conflict-free (%.0f%%)\n",
				kind, okCount, len(teams), 100*float64(okCount)/float64(max(1, len(teams))))
		}
		fmt.Println()
	}
	fmt.Println("Most unsigned teams hide at least one inferred conflict — the tool")
	fmt.Println("needs to be sign-aware, which is exactly what this library provides.")
}
