package costmodel

import "fmt"

// Decision is one advisor recommendation in a form the explain subsystem
// can serialize: the choice, the human-readable reasoning, and the model
// inputs that produced it. Field order is fixed (struct, no maps) so the
// canonical JSON encoding is byte-stable across runs.
type Decision struct {
	// Subject names what was decided ("shards").
	Subject string `json:"subject"`
	// Choice is the recommendation's engine-facing name (a tile count
	// rendered in decimal).
	Choice string `json:"choice"`
	// Reason is the model's one-line justification.
	Reason string `json:"reason"`
	// NA, NB, Overlap, K and Fanout echo the Params the model saw, with
	// the fanout default resolved.
	NA      int     `json:"n_a"`
	NB      int     `json:"n_b"`
	Overlap float64 `json:"overlap"`
	K       int     `json:"k"`
	Fanout  float64 `json:"fanout"`
}

// decision fills the shared input echo.
func (p Params) decision(subject, choice, reason string) Decision {
	return Decision{
		Subject: subject,
		Choice:  choice,
		Reason:  reason,
		NA:      p.NA,
		NB:      p.NB,
		Overlap: p.Overlap,
		K:       p.K,
		Fanout:  p.fanout(),
	}
}

// RecommendShardsDecision is RecommendShards with the full decision record
// for EXPLAIN output.
func RecommendShardsDecision(p Params, workers int) (int, Decision, error) {
	t, reason, err := RecommendShards(p, workers)
	if err != nil {
		return t, Decision{}, err
	}
	return t, p.decision("shards", fmt.Sprintf("%d", t), reason), nil
}
