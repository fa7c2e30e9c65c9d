// Quickstart: build a PSP framework over the built-in reference corpus,
// compute the Social Attraction Index for European excavators, and print
// the ranking with the top threat's attack probability.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	psp "github.com/psp-framework/psp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// NewDefault wires the deterministic reference corpus (seeded) and
	// the calibrated market dataset.
	fw, err := psp.NewDefault(42)
	if err != nil {
		return fmt.Errorf("build framework: %w", err)
	}

	// One call runs the Fig. 7 social workflow: keyword query,
	// auto-learning, SAI computation, insider/outsider classification.
	res, err := fw.RunSocial(context.Background(), psp.SocialInput{
		Application: "excavator",
		Region:      psp.RegionEurope,
	})
	if err != nil {
		return fmt.Errorf("social workflow: %w", err)
	}

	fmt.Fprint(w, psp.RenderSAITable(res.Index, "Social Attraction Index — excavators, Europe"))

	top, err := res.Index.Top()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmost attractive insider attack: %s (probability %.1f%%, %d posts)\n",
		top.Topic, top.Probability*100, top.Posts)

	if len(res.Learned) > 0 {
		fmt.Fprintln(w, "\nkeywords auto-learned this run:")
		topics := make([]string, 0, len(res.Learned))
		for topic := range res.Learned {
			topics = append(topics, topic)
		}
		slices.Sort(topics)
		for _, topic := range topics {
			fmt.Fprintf(w, "  %-22s %v\n", topic+":", res.Learned[topic])
		}
	}
	return nil
}
