package market

import (
	"fmt"
	"strings"
)

// AttackerStat is one annual-report statistic: the percentage of owners
// (or operators) of an application in a region estimated to be potential
// attackers for an attack category. It replaces the text-mined Upstream
// report figures of the paper.
type AttackerStat struct {
	// Category is the attack topic key ("dpf-tampering",
	// "ecm-reprogramming", ...).
	Category string
	// Application is the vehicle application the statistic covers.
	Application string
	// Region is the market region code.
	Region string
	// Year is the report year.
	Year int
	// PEA is the potential-attacker share in [0, 1].
	PEA float64
	// Source names the report the figure comes from.
	Source string
}

// ReportDB is the cybersecurity annual-report database.
type ReportDB struct {
	stats []AttackerStat
}

// NewReportDB builds a database, validating every entry.
func NewReportDB(stats []AttackerStat) (*ReportDB, error) {
	db := &ReportDB{}
	for _, s := range stats {
		if err := db.AddStat(s); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// AddStat inserts one attacker statistic.
func (db *ReportDB) AddStat(s AttackerStat) error {
	if strings.TrimSpace(s.Category) == "" || strings.TrimSpace(s.Application) == "" ||
		strings.TrimSpace(s.Region) == "" {
		return fmt.Errorf("market: attacker stat with empty category/application/region: %+v", s)
	}
	if s.PEA < 0 || s.PEA > 1 {
		return fmt.Errorf("market: attacker stat with PEA outside [0,1]: %+v", s)
	}
	db.stats = append(db.stats, s)
	return nil
}

// PEA returns the potential-attacker share for a category, application,
// region and year. When the exact year is absent it falls back to the
// most recent earlier year for the same key.
func (db *ReportDB) PEA(category, application, region string, year int) (float64, error) {
	category, application, region = normKey(category), normKey(application), normKey(region)
	bestYear := -1
	var best float64
	for _, s := range db.stats {
		if normKey(s.Category) != category || normKey(s.Application) != application ||
			normKey(s.Region) != region || s.Year > year {
			continue
		}
		if s.Year > bestYear {
			bestYear, best = s.Year, s.PEA
		}
	}
	if bestYear < 0 {
		return 0, fmt.Errorf("market: no PEA data for %s/%s/%s up to %d", category, application, region, year)
	}
	return best, nil
}
