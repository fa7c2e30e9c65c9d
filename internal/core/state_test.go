package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

func stateThreat() *tara.ThreatScenario {
	return &tara.ThreatScenario{
		ID: "TS-ECM-01", Name: "ECM reprogramming",
		DamageIDs: []string{"DS-01"},
		Property:  tara.PropertyIntegrity,
		STRIDE:    tara.Tampering,
		Profiles:  []tara.AttackerProfile{tara.ProfileInsider},
		Vector:    tara.VectorPhysical,
		Keywords:  []string{"chiptuning", "ecutune", "remap", "stage1"},
	}
}

// TestFillStateRoundtrip: exported fills and memos, through their
// binary forms, rehydrated into a fresh cache serve a whole delta run
// without a single backend query or tokenized post, producing an
// identical result.
func TestFillStateRoundtrip(t *testing.T) {
	store, err := social.DefaultStore(42)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := New(Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	in := SocialInput{Threats: []*tara.ThreatScenario{stateThreat()}}
	ctx := context.Background()

	rc := NewResultCache(store)
	want, err := fw.RunSocialDelta(ctx, in, rc)
	if err != nil {
		t.Fatal(err)
	}
	fills, memos := rc.ExportFills(), rc.ExportMemos()
	if len(fills) == 0 || len(memos) == 0 {
		t.Fatalf("run produced %d fills and %d memos to export", len(fills), len(memos))
	}
	decoded, err := DecodeFills(AppendFills(nil, fills))
	if err != nil {
		t.Fatal(err)
	}
	decodedMemos, err := DecodeMemos(AppendMemos(nil, memos))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decodedMemos, memos) {
		t.Fatal("memos changed through their binary form")
	}

	counting := &countingSearcher{inner: store}
	rc2 := NewResultCache(counting)
	if restored := rc2.ImportFills(decoded, decodedMemos, store.Post); restored != len(fills) {
		t.Fatalf("restored %d fills, want %d", restored, len(fills))
	}
	got, err := fw.RunSocialDelta(ctx, in, rc2)
	if err != nil {
		t.Fatal(err)
	}
	if n := counting.calls.Load(); n != 0 {
		t.Errorf("restored cache still queried the backend %d times", n)
	}
	if n := rc2.tokenized.Load(); n != 0 {
		t.Errorf("restored cache still tokenized %d posts", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("run over restored fills diverged from the original")
	}
	checkMemos(t, fw, rc2)

	// A fill pointing at a post the store lost is dropped, not half
	// restored, and its memos with it.
	lost := memos[0].Key
	broken := append([]FillState(nil), decoded...)
	for i := range broken {
		if cacheKey(broken[i].Query.Canonical()) == lost {
			broken[i].PostIDs = append([]string{"no-such-post"}, broken[i].PostIDs...)
		}
	}
	rc3 := NewResultCache(store)
	if restored := rc3.ImportFills(broken, decodedMemos, store.Post); restored != len(broken)-1 {
		t.Fatalf("restored %d fills from a broken export, want %d", restored, len(broken)-1)
	}
	if len(rc3.slices) == 0 {
		t.Fatal("no memo restored")
	}
	for sig, qs := range rc3.slices {
		if cacheKey(qs.fill.query) == lost {
			t.Errorf("memo %s restored without its fill", sig)
		}
	}
}

// TestRestoreDecodersSurviveDamage: the fill and memo decoders, fed
// their payloads cut at every offset or with any byte flipped — damage
// the state file's checksums normally stop before decoding — fail a cut
// payload and never panic, and whatever a flipped payload decodes to
// imports without panicking either.
func TestRestoreDecodersSurviveDamage(t *testing.T) {
	store := social.NewStore()
	for i := 0; i < 40; i++ {
		text := "my #chiptuning remap kit"
		if i%3 == 0 {
			text = "best #chiptuning deal dm me" // repeated: the defence drops copies
		}
		if err := store.Add(deltaPost(i, text)); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := New(Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	rc := NewResultCache(store)
	in := SocialInput{Threats: []*tara.ThreatScenario{stateThreat()}, FilterInauthentic: true}
	if _, err := fw.RunSocialDelta(context.Background(), in, rc); err != nil {
		t.Fatal(err)
	}
	fills, memos := rc.ExportFills(), rc.ExportMemos()
	kept := false
	for _, ms := range memos {
		kept = kept || ms.Kept != nil
	}
	if !kept {
		t.Fatal("no memo holds a filtered subset; the damage misses the positions")
	}
	// importDamaged decodes a damaged payload of one kind and imports it
	// next to the intact other kind.
	for name, importDamaged := range map[string]func([]byte) error{
		"fills": func(b []byte) error {
			fs, err := DecodeFills(b)
			NewResultCache(store).ImportFills(fs, memos, store.Post)
			return err
		},
		"memos": func(b []byte) error {
			ms, err := DecodeMemos(b)
			NewResultCache(store).ImportFills(fills, ms, store.Post)
			return err
		},
	} {
		payload := AppendFills(nil, fills)
		if name == "memos" {
			payload = AppendMemos(nil, memos)
		}
		for cut := 0; cut < len(payload); cut++ {
			if importDamaged(payload[:cut]) == nil {
				t.Fatalf("%s payload cut at %d of %d decoded", name, cut, len(payload))
			}
		}
		for off := 0; off < len(payload); off++ {
			bad := append([]byte(nil), payload...)
			bad[off] ^= 0x40
			_ = importDamaged(bad) // a flip may decode; it must not panic
		}
	}
}
