package nlp

import (
	"strings"
	"unicode"
)

// TokenKind classifies a token produced by Tokenize.
type TokenKind int

// Token kinds.
const (
	TokenWord TokenKind = iota + 1
	TokenHashtag
	TokenMention
	TokenURL
	TokenNumber
	TokenEmoticon
)

var tokenKindNames = map[TokenKind]string{
	TokenWord:     "word",
	TokenHashtag:  "hashtag",
	TokenMention:  "mention",
	TokenURL:      "url",
	TokenNumber:   "number",
	TokenEmoticon: "emoticon",
}

// String returns the kind name.
func (k TokenKind) String() string {
	if s, ok := tokenKindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Token is one lexical unit of a post.
type Token struct {
	// Kind classifies the token.
	Kind TokenKind
	// Text is the normalized token text: lower-cased, with the leading
	// '#'/'@' sigil stripped for hashtags and mentions.
	Text string
	// Raw is the original surface form.
	Raw string
}

// emoticons recognized as standalone sentiment-bearing tokens.
var emoticons = map[string]bool{
	":)": true, ":-)": true, ":(": true, ":-(": true, ":D": true, ":-D": true,
	";)": true, ";-)": true, ":/": true, ":-/": true, ":P": true, ":-P": true,
	"<3": true, ":'(": true, "xD": true, "XD": true,
}

// Tokenize splits social-media text into tokens. It recognizes hashtags
// (#dpfdelete), mentions (@vendor), URLs (http/https), numbers (including
// decimal separators and currency-adjacent forms) and emoticons; every
// other maximal letter run becomes a word. Apostrophes and intra-word
// hyphens stay inside words ("don't", "anti-tamper").
func Tokenize(text string) []Token {
	var tokens []Token
	fields := strings.Fields(text)
	for _, f := range fields {
		if emoticons[f] {
			tokens = append(tokens, Token{Kind: TokenEmoticon, Text: f, Raw: f})
			continue
		}
		if strings.HasPrefix(f, "http://") || strings.HasPrefix(f, "https://") {
			tokens = append(tokens, Token{Kind: TokenURL, Text: strings.ToLower(trimTrailingPunct(f)), Raw: f})
			continue
		}
		tokens = append(tokens, tokenizeField(f)...)
	}
	return tokens
}

// tokenizeField splits a whitespace-delimited field into tokens, handling
// sigils and punctuation boundaries.
func tokenizeField(f string) []Token {
	var tokens []Token
	runes := []rune(f)
	i := 0
	for i < len(runes) {
		r := runes[i]
		switch {
		case r == '#' || r == '@':
			j := i + 1
			for j < len(runes) && isTagRune(runes[j]) {
				j++
			}
			if j > i+1 {
				raw := string(runes[i:j])
				kind := TokenHashtag
				if r == '@' {
					kind = TokenMention
				}
				tokens = append(tokens, Token{
					Kind: kind,
					Text: strings.ToLower(string(runes[i+1 : j])),
					Raw:  raw,
				})
			}
			i = j // j ≥ i+1, so a lone sigil is skipped
		case unicode.IsDigit(r):
			j := i
			for j < len(runes) && (unicode.IsDigit(runes[j]) || runes[j] == '.' || runes[j] == ',') {
				j++
			}
			raw := string(runes[i:j])
			tokens = append(tokens, Token{Kind: TokenNumber, Text: strings.Trim(raw, ".,"), Raw: raw})
			i = j
		case unicode.IsLetter(r):
			j := i
			for j < len(runes) && isWordRune(runes, j) {
				j++
			}
			raw := string(runes[i:j])
			tokens = append(tokens, Token{Kind: TokenWord, Text: strings.ToLower(raw), Raw: raw})
			i = j
		default:
			i++
		}
	}
	return tokens
}

// isTagRune reports whether r may appear inside a hashtag or mention body.
func isTagRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// isWordRune reports whether the rune at position j continues a word:
// letters always do; apostrophes and hyphens do when flanked by letters.
func isWordRune(runes []rune, j int) bool {
	r := runes[j]
	if unicode.IsLetter(r) {
		return true
	}
	if r == '\'' || r == '-' {
		return j+1 < len(runes) && unicode.IsLetter(runes[j+1]) && j > 0 && unicode.IsLetter(runes[j-1])
	}
	return false
}

// trimTrailingPunct removes sentence punctuation glued to a URL.
func trimTrailingPunct(s string) string {
	return strings.TrimRight(s, ".,;:!?)")
}

// Hashtags returns the normalized text of all hashtag tokens (without the
// '#' sigil), preserving order and duplicates.
func Hashtags(tokens []Token) []string {
	var out []string
	for _, t := range tokens {
		if t.Kind == TokenHashtag {
			out = append(out, t.Text)
		}
	}
	return out
}
