package core

import (
	"strings"
	"testing"

	"dacce/internal/prog"
)

// prefixState is a minimal two-epoch state: main calls f through s0 and
// g through s1, and epoch 1 encodes both edges with code 0.
func prefixState() *EncoderState {
	return &EncoderState{
		Funcs: []string{"main", "f", "g"},
		Sites: []StateSite{{Caller: 0, Kind: uint8(prog.Normal)}, {Caller: 0, Kind: uint8(prog.Normal)}},
		Roots: []prog.FuncID{0},
		Nodes: []prog.FuncID{0, 1, 2},
		Edges: []StateEdge{{Site: 0, Target: 1, Freq: 1}, {Site: 1, Target: 2, Freq: 1}},
		Epoch: 1,
		Epochs: []StateEpoch{
			{NumCC: []StateNumCC{{Fn: 0, NumCC: 1}}},
			{
				NumCC:        []StateNumCC{{Fn: 0, NumCC: 1}, {Fn: 1, NumCC: 1}, {Fn: 2, NumCC: 1}},
				Codes:        []StateCode{{Edge: 0, Encoded: true}, {Edge: 1, Encoded: true}},
				EncodedEdges: 2,
			},
		},
	}
}

// TestValidateRequiresCodePrefix: an epoch's codes are read densely as
// edges 0..k-1, so a state whose codes skip, reorder or repeat an edge
// must be rejected — accepting it would put codes on the wrong edges
// and decode captures to wrong contexts.
func TestValidateRequiresCodePrefix(t *testing.T) {
	st := prefixState()
	if err := st.Validate(); err != nil {
		t.Fatalf("prefix state rejected: %v", err)
	}
	dec, err := st.NewDecoder()
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := dec.Decode(&Capture{Epoch: 1, Fn: 2, Root: 0})
	if err != nil || len(ctx) != 2 || ctx[1].Site != 1 || ctx[1].Fn != 2 {
		t.Fatalf("decode of g under the prefix state = %v, %v; want main → g via s1", ctx, err)
	}

	for name, codes := range map[string][]StateCode{
		"gap":       {{Edge: 1, Encoded: true}},
		"reordered": {{Edge: 1, Encoded: true}, {Edge: 0, Encoded: true}},
		"repeated":  {{Edge: 0, Encoded: true}, {Edge: 0, Encoded: true}},
		"too many":  {{Edge: 0}, {Edge: 1}, {Edge: 2}},
		"negative":  {{Edge: -1}},
	} {
		st := prefixState()
		st.Epochs[1].Codes = codes
		err := st.Validate()
		if err == nil || !strings.Contains(err.Error(), "epoch 1") {
			t.Errorf("%s: Validate = %v, want an epoch 1 error", name, err)
		}
		if _, err := st.NewDecoder(); err == nil {
			t.Errorf("%s: NewDecoder accepted the state", name)
		}
	}
}
