package nlp

import (
	"reflect"
	"testing"
	"testing/quick"
)

func kinds(tokens []Token) []TokenKind {
	out := make([]TokenKind, len(tokens))
	for i, t := range tokens {
		out[i] = t.Kind
	}
	return out
}

func texts(tokens []Token) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeScenePost(t *testing.T) {
	tokens := Tokenize("Best #dpfdelete kit for my excavator, 360€ from @tuningshop https://shop.example/dpf :)")
	wantKinds := []TokenKind{
		TokenWord, TokenHashtag, TokenWord, TokenWord, TokenWord,
		TokenWord, TokenNumber, TokenWord, TokenMention, TokenURL, TokenEmoticon,
	}
	if !reflect.DeepEqual(kinds(tokens), wantKinds) {
		t.Fatalf("kinds = %v, want %v (tokens %v)", kinds(tokens), wantKinds, tokens)
	}
	wantTexts := []string{
		"best", "dpfdelete", "kit", "for", "my",
		"excavator", "360", "from", "tuningshop", "https://shop.example/dpf", ":)",
	}
	if !reflect.DeepEqual(texts(tokens), wantTexts) {
		t.Fatalf("texts = %v, want %v", texts(tokens), wantTexts)
	}
}

func TestTokenizeEdgeCases(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string // expected token texts
	}{
		{"empty", "", nil},
		{"whitespace only", "   \t\n ", nil},
		{"lone sigil", "# @", nil},
		{"apostrophe word", "don't brick it", []string{"don't", "brick", "it"}},
		{"hyphenated word", "anti-tamper device", []string{"anti-tamper", "device"}},
		{"trailing hyphen splits", "tuning- kit", []string{"tuning", "kit"}},
		{"decimal number", "price 349.99 only", []string{"price", "349.99", "only"}},
		{"hashtag with digits", "#egr2023 rocks", []string{"egr2023", "rocks"}},
		{"punct-glued url", "see https://x.example/a, now", []string{"see", "https://x.example/a", "now"}},
		{"unicode words", "prova però così", []string{"prova", "però", "così"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := texts(Tokenize(tt.in))
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Tokenize(%q) texts = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestHashtagsAndWords(t *testing.T) {
	tokens := Tokenize("#DPFdelete works great #dpfdelete #EGRoff")
	tags := Hashtags(tokens)
	want := []string{"dpfdelete", "dpfdelete", "egroff"}
	if !reflect.DeepEqual(tags, want) {
		t.Errorf("Hashtags() = %v, want %v", tags, want)
	}
	var words []string
	for _, tok := range tokens {
		if tok.Kind == TokenWord {
			words = append(words, tok.Text)
		}
	}
	if !reflect.DeepEqual(words, []string{"works", "great"}) {
		t.Errorf("word tokens = %v, want [works great]", words)
	}
}

// Property: tokenization never panics and yields lower-cased texts for
// words and hashtags.
func TestTokenizeTotalProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok.Kind == TokenWord || tok.Kind == TokenHashtag {
				for _, r := range tok.Text {
					if r >= 'A' && r <= 'Z' {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	tests := []struct{ in, want string }{
		{"SOOOO", "soo"},
		{"d3l3te", "delete"},
		{"DPF", "dpf"},
		{"  mixed  ", "mixed"},
		{"12345", "12345"}, // pure numbers keep digits
		{"t00l", "tool"},
		{"", ""},
	}
	for _, tt := range tests {
		if got := Normalize(tt.in); got != tt.want {
			t.Errorf("Normalize(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestStem(t *testing.T) {
	tests := []struct{ in, want string }{
		{"deleted", "delet"},
		{"deletes", "delet"},
		{"deleting", "delet"},
		{"removal", "remov"},
		{"tuning", "tun"},
		{"tuners", "tun"},
		{"dpf", "dpf"},      // short words unchanged
		{"cars", "cars"},    // ≤4 letters unchanged
		{"stopped", "stop"}, // undoubling
		{"devices", "devic"},
	}
	for _, tt := range tests {
		if got := Stem(tt.in); got != tt.want {
			t.Errorf("Stem(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestStemConflatesInflections(t *testing.T) {
	// The property the sentiment engine and keyword learner rely on:
	// inflections of the same verb share a stem.
	groups := [][]string{
		{"deleted", "deletes", "deleting"},
		{"removed", "removes", "removing"},
		{"tuned", "tunes", "tuning"},
	}
	for _, g := range groups {
		base := Stem(g[0])
		for _, w := range g[1:] {
			if Stem(w) != base {
				t.Errorf("Stem(%q) = %q, want %q (conflation broken)", w, Stem(w), base)
			}
		}
	}
}
