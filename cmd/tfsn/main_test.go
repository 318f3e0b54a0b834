package main

import (
	"math"
	"testing"
)

// TestValidateFlagsDiverseLambda: -diverse-lambda accepts finite
// weights >= 0 only. +Inf in particular must be refused: cost + Inf·0
// is NaN, which would silently turn the diverse selection into plain
// top-k.
func TestValidateFlagsDiverseLambda(t *testing.T) {
	set := map[string]bool{"diverse-lambda": true}
	for _, l := range []float64{0, 0.5, 3} {
		if err := validateFlags(config{diverseL: l}, set); err != nil {
			t.Errorf("lambda %v rejected: %v", l, err)
		}
	}
	for _, l := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := validateFlags(config{diverseL: l}, set); err == nil {
			t.Errorf("lambda %v accepted", l)
		}
	}
}
