package market

import (
	"fmt"
	"strings"
)

// SalesRecord is one (maker, application, region, year) sales figure.
type SalesRecord struct {
	// Maker is the manufacturer; "*" aggregates the whole market.
	Maker string
	// Application is the vehicle application ("excavator", "car", ...).
	Application string
	// Region is the market region code ("EU", "NA", ...).
	Region string
	// Year is the sales year.
	Year int
	// Units is the number of vehicles sold.
	Units int
}

// SalesDB stores sales figures and answers the VS / MS queries of
// Equation 2.
type SalesDB struct {
	records []SalesRecord
}

// NewSalesDB builds a database from records, validating each.
func NewSalesDB(records []SalesRecord) (*SalesDB, error) {
	db := &SalesDB{}
	for _, r := range records {
		if err := db.Add(r); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Add inserts one record.
func (db *SalesDB) Add(r SalesRecord) error {
	if strings.TrimSpace(r.Maker) == "" || strings.TrimSpace(r.Application) == "" ||
		strings.TrimSpace(r.Region) == "" {
		return fmt.Errorf("market: sales record with empty maker/application/region: %+v", r)
	}
	if r.Year < 1990 || r.Year > 2100 {
		return fmt.Errorf("market: sales record with implausible year %d", r.Year)
	}
	if r.Units < 0 {
		return fmt.Errorf("market: sales record with negative units: %+v", r)
	}
	db.records = append(db.records, r)
	return nil
}

// Len returns the number of records.
func (db *SalesDB) Len() int { return len(db.records) }

// VehicleSales returns total market sales (VS) for an application,
// region and year, summing across makers (records with maker "*" count
// as whole-market aggregates and are preferred when present).
func (db *SalesDB) VehicleSales(application, region string, year int) (int, error) {
	application, region = normKey(application), normKey(region)
	aggregate, sum, found := -1, 0, false
	for _, r := range db.records {
		if normKey(r.Application) != application || normKey(r.Region) != region || r.Year != year {
			continue
		}
		found = true
		if r.Maker == "*" {
			aggregate = r.Units
			continue
		}
		sum += r.Units
	}
	if !found {
		return 0, fmt.Errorf("market: no sales data for %s/%s/%d", application, region, year)
	}
	if aggregate >= 0 {
		return aggregate, nil
	}
	return sum, nil
}

// MarketShare returns the units sold (MS) by one maker for an
// application, region and year.
func (db *SalesDB) MarketShare(maker, application, region string, year int) (int, error) {
	application, region = normKey(application), normKey(region)
	for _, r := range db.records {
		if normKey(r.Maker) == normKey(maker) &&
			normKey(r.Application) == application &&
			normKey(r.Region) == region && r.Year == year {
			return r.Units, nil
		}
	}
	return 0, fmt.Errorf("market: no market-share data for %s %s/%s/%d", maker, application, region, year)
}

func normKey(s string) string { return strings.ToLower(strings.TrimSpace(s)) }
