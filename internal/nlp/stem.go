package nlp

import "strings"

// Stem applies a light English suffix-stripping stemmer (a reduced Porter
// step-1/2 variant) sufficient to conflate the inflections that appear in
// tuning-scene posts: "deleted"/"deletes"/"deleting" → "delet",
// "removal"/"removals" → "remov", "tuners"/"tuner"/"tuning" → "tun".
// Words of four letters or fewer are returned unchanged.
func Stem(word string) string {
	w := word
	if len(w) <= 4 {
		return w
	}
	// Plural / verbal s-forms.
	switch {
	case strings.HasSuffix(w, "sses"):
		w = strings.TrimSuffix(w, "es")
	case strings.HasSuffix(w, "ies"):
		w = strings.TrimSuffix(w, "ies") + "i"
	case strings.HasSuffix(w, "ss"):
		// keep
	case strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "us"):
		w = strings.TrimSuffix(w, "s")
	}
	// Participles and gerunds.
	switch {
	case strings.HasSuffix(w, "ied"):
		w = strings.TrimSuffix(w, "ied") + "i"
	case strings.HasSuffix(w, "eed"):
		// keep ("agreed" → "agreed"): avoids over-stripping
	case strings.HasSuffix(w, "ed") && len(w) > 4:
		w = strings.TrimSuffix(w, "ed")
	case strings.HasSuffix(w, "ing") && len(w) > 5:
		w = strings.TrimSuffix(w, "ing")
	}
	// Derivational endings common in the domain vocabulary.
	for _, suf := range []string{"ization", "isation", "ation", "ment", "ness", "ful", "al", "er", "or"} {
		if strings.HasSuffix(w, suf) && len(w)-len(suf) >= 3 {
			w = strings.TrimSuffix(w, suf)
			break
		}
	}
	// Undouble trailing consonants introduced by stripping ("stopp" → "stop").
	if len(w) >= 4 && w[len(w)-1] == w[len(w)-2] && !isVowel(w[len(w)-1]) && w[len(w)-1] != 'l' && w[len(w)-1] != 's' {
		w = w[:len(w)-1]
	}
	// Drop a final silent e so "deletes"/"deleted" and "tunes"/"tuned"
	// conflate.
	if strings.HasSuffix(w, "e") && len(w) >= 4 {
		w = strings.TrimSuffix(w, "e")
	}
	return w
}

func isVowel(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}
