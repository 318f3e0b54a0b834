package signedteams

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/predict"
	"repro/internal/team"
)

// This file exposes the extensions the paper's conclusions call for
// ("we plan to investigate different ways to combine compatibility
// and communication cost and to exploit compatibility for other
// tasks, such as link prediction or clustering"): alternative cost
// objectives, team constraints, edge sign prediction, and
// signed-graph clustering. Top-k and diverse top-k team enumeration
// are TeamSolver methods (FormTopKContext, FormTopKDiverseContext).

// Cost objectives.
type CostKind = team.CostKind

const (
	// DiameterCost is the paper's objective: the largest pairwise
	// relation-distance within the team.
	DiameterCost = team.Diameter
	// SumDistanceCost sums all pairwise relation-distances.
	SumDistanceCost = team.SumDistance
)

// TeamCostWith prices a team under the chosen objective.
func TeamCostWith(rel Relation, members []NodeID, kind CostKind) (int32, error) {
	return team.CostWith(rel, members, kind)
}

// TeamConstraints restricts which teams formation may return:
// must-include members, must-exclude members, a team-size cap. Carried
// on FormOptions.Constraints, so every formation entry point accepts
// it; the zero value is unconstrained.
type TeamConstraints = team.Constraints

// ErrInfeasibleTeam reports that the constraints themselves forbid any
// team (an include that is also excluded, every holder of a required
// skill excluded, a cap below the include count). It wraps ErrNoTeam;
// test with errors.Is.
var ErrInfeasibleTeam = team.ErrInfeasible

// Sign prediction.
type (
	// SignPredictor predicts edge signs on a training graph using the
	// compatibility machinery.
	SignPredictor = predict.Predictor
	// PredictMethod enumerates the sign predictors.
	PredictMethod = predict.Method
	// PredictResult aggregates a hold-out evaluation.
	PredictResult = predict.Result
)

// The sign predictors: majority of shortest-path signs, shortest
// balanced path sign, global two-faction camps, and the
// always-positive baseline.
const (
	PredictMajoritySP     = predict.MajoritySP
	PredictBalancedPath   = predict.BalancedPath
	PredictCamps          = predict.Camps
	PredictAlwaysPositive = predict.AlwaysPositive
)

// PredictMethods lists every sign predictor.
func PredictMethods() []PredictMethod { return predict.Methods() }

// NewSignPredictor prepares a predictor over a training graph.
func NewSignPredictor(g *Graph, method PredictMethod) (*SignPredictor, error) {
	return predict.NewPredictor(g, method)
}

// EvaluateSignPrediction holds out testFrac of the edges and scores
// every method on predicting their signs from the rest.
func EvaluateSignPrediction(g *Graph, rng *rand.Rand, testFrac float64, methods []PredictMethod) ([]PredictResult, error) {
	return predict.Evaluate(g, rng, testFrac, methods)
}

// Clustering.
type (
	// ClusterLabels assigns every node a cluster id.
	ClusterLabels = cluster.Labels
)

// TwoFactions splits the graph into the two balance-theoretic camps,
// returning the labelling and its disagreement count.
func TwoFactions(g *Graph) (ClusterLabels, int) { return cluster.TwoFactions(g) }

// PivotCC runs CC-PIVOT correlation clustering over positive
// neighbourhoods.
func PivotCC(g *Graph, rng *rand.Rand) ClusterLabels { return cluster.PivotCC(g, rng) }

// ClusterLocalSearch refines a labelling by single-node moves; it
// never increases the disagreement objective.
func ClusterLocalSearch(g *Graph, l ClusterLabels, passes int) (ClusterLabels, int, error) {
	return cluster.LocalSearch(g, l, passes)
}

// ClusterDisagreements scores a labelling with the correlation
// clustering objective (intra-cluster negative + inter-cluster
// positive edges).
func ClusterDisagreements(g *Graph, l ClusterLabels) (int, error) {
	return cluster.Disagreements(g, l)
}

// ClusterAgreement is the pair-counting accuracy (Rand index) between
// two labellings.
func ClusterAgreement(a, b ClusterLabels) (float64, error) { return cluster.Agreement(a, b) }
