// Package cliflags holds the flag vocabulary the serving and
// experiment binaries share, so a knob added to one cannot silently
// drift out of the others' validation. cmd/tfsn, cmd/tfsnd and
// cmd/experiments all register the relation-engine flags through
// Engine and reject an unknown engine, or sharded-only flags under
// another engine, through Engine.Validate; Engine.Build is the one
// engine switch, used by the binaries and by the experiment harness
// (experiments.Config carries the parsed Engine) and the one caller
// of RelationOptions besides cmd/cmatrix, so a relation name means one
// relation everywhere. cmd/tfsn, cmd/tfsnd and cmd/cmatrix load their
// dataset through Data, and ParseTask is the one skill-name parser for
// tfsn's -task and the daemon's task parameter.
// The serving flags (Serve), the constraint flags (ConstraintSpec),
// the policy and cost parsers and the mutation grammar
// (ParseMutation) are shared the same way.
package cliflags
