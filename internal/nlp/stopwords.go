package nlp

// stopwords is the English stop-word list used when extracting keywords.
// Negation words ("not", "no", "never", "without")
// are deliberately NOT stop words: the sentiment engine consumes them.
var stopwords = map[string]bool{
	"a": true, "about": true, "above": true, "after": true, "again": true,
	"all": true, "also": true, "am": true, "an": true, "and": true,
	"any": true, "are": true, "as": true, "at": true, "be": true,
	"because": true, "been": true, "before": true, "being": true,
	"below": true, "between": true, "both": true, "but": true, "by": true,
	"can": true, "could": true, "did": true, "do": true, "does": true,
	"doing": true, "down": true, "during": true, "each": true, "few": true,
	"for": true, "from": true, "further": true, "get": true, "got": true,
	"had": true, "has": true, "have": true, "having": true, "he": true,
	"her": true, "here": true, "hers": true, "him": true, "his": true,
	"how": true, "i": true, "if": true, "in": true, "into": true,
	"is": true, "it": true, "its": true, "just": true, "me": true,
	"more": true, "most": true, "my": true, "now": true, "of": true,
	"on": true, "once": true, "only": true, "or": true, "other": true,
	"our": true, "ours": true, "out": true, "over": true, "own": true,
	"same": true, "she": true, "should": true, "so": true, "some": true,
	"such": true, "than": true, "that": true, "the": true, "their": true,
	"theirs": true, "them": true, "then": true, "there": true,
	"these": true, "they": true, "this": true, "those": true,
	"through": true, "to": true, "too": true, "under": true, "until": true,
	"up": true, "was": true, "we": true, "were": true, "what": true,
	"when": true, "where": true, "which": true, "while": true, "who": true,
	"whom": true, "why": true, "will": true, "with": true, "would": true,
	"you": true, "your": true, "yours": true,
}

// IsStopword reports whether the (already lower-cased) word is a stop
// word.
func IsStopword(w string) bool { return stopwords[w] }

// RemoveStopwords filters stop words out of a word list, preserving
// order.
func RemoveStopwords(words []string) []string {
	out := make([]string, 0, len(words))
	for _, w := range words {
		if !stopwords[w] {
			out = append(out, w)
		}
	}
	return out
}
