package market

import (
	"math"
	"testing"
)

func mustDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := DefaultDataset()
	if err != nil {
		t.Fatalf("DefaultDataset(): %v", err)
	}
	return ds
}

func TestSalesQueries(t *testing.T) {
	ds := mustDataset(t)
	ms, err := ds.Sales.MarketShare(MajorExcavatorMaker, "excavator", "EU", 2022)
	if err != nil {
		t.Fatal(err)
	}
	if ms != 28120 {
		t.Errorf("MarketShare = %d, want 28120 (calibrated to Eq. 6)", ms)
	}
	vs, err := ds.Sales.VehicleSales("excavator", "EU", 2022)
	if err != nil {
		t.Fatal(err)
	}
	if vs != 84300 {
		t.Errorf("VehicleSales = %d, want 84300 (aggregate record preferred)", vs)
	}
	// Case-insensitive keys.
	if _, err := ds.Sales.MarketShare("terramach", "Excavator", "eu", 2022); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	// Missing data errors.
	if _, err := ds.Sales.VehicleSales("submarine", "EU", 2022); err == nil {
		t.Error("unknown application accepted")
	}
	if _, err := ds.Sales.MarketShare("Nobody", "excavator", "EU", 2022); err == nil {
		t.Error("unknown maker accepted")
	}
}

func TestSalesSumWithoutAggregate(t *testing.T) {
	db, err := NewSalesDB([]SalesRecord{
		{Maker: "A", Application: "van", Region: "EU", Year: 2022, Units: 100},
		{Maker: "B", Application: "van", Region: "EU", Year: 2022, Units: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := db.VehicleSales("van", "EU", 2022)
	if err != nil {
		t.Fatal(err)
	}
	if vs != 150 {
		t.Errorf("VehicleSales without aggregate = %d, want 150", vs)
	}
}

func TestSalesValidation(t *testing.T) {
	bad := []SalesRecord{
		{Maker: "", Application: "x", Region: "EU", Year: 2022, Units: 1},
		{Maker: "A", Application: "x", Region: "EU", Year: 1900, Units: 1},
		{Maker: "A", Application: "x", Region: "EU", Year: 2022, Units: -1},
	}
	for i, r := range bad {
		if _, err := NewSalesDB([]SalesRecord{r}); err == nil {
			t.Errorf("case %d: invalid record accepted: %+v", i, r)
		}
	}
}

func TestPEAQueryAndFallback(t *testing.T) {
	ds := mustDataset(t)
	pea, err := ds.Reports.PEA(CategoryDPFTampering, "excavator", "EU", 2022)
	if err != nil {
		t.Fatal(err)
	}
	if pea != 0.05 {
		t.Errorf("PEA = %v, want 0.05", pea)
	}
	// Year fallback: a 2023 query uses the 2022 figure.
	pea23, err := ds.Reports.PEA(CategoryDPFTampering, "excavator", "EU", 2023)
	if err != nil {
		t.Fatal(err)
	}
	if pea23 != 0.05 {
		t.Errorf("PEA fallback = %v, want 0.05", pea23)
	}
	// Earlier than any report: error.
	if _, err := ds.Reports.PEA(CategoryDPFTampering, "excavator", "EU", 2019); err == nil {
		t.Error("PEA before first report accepted")
	}
	if _, err := ds.Reports.PEA("nonexistent", "excavator", "EU", 2022); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestReportValidation(t *testing.T) {
	if _, err := NewReportDB([]AttackerStat{{Category: "", Application: "x", Region: "EU", PEA: 0.1}}); err == nil {
		t.Error("empty category accepted")
	}
	if _, err := NewReportDB([]AttackerStat{{Category: "c", Application: "x", Region: "EU", PEA: 1.5}}); err == nil {
		t.Error("PEA > 1 accepted")
	}
}

func TestMinePricesExcavatorCaseStudy(t *testing.T) {
	ds := mustDataset(t)
	// The paper clusters "adversary devices or services found online":
	// both kinds participate in the PPIA survey.
	sellable := ds.Listings.SelectKinds(CategoryDPFTampering, "EU", "device", "service")
	survey, err := MinePrices(sellable, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The dominant cluster must be the mainstream band with mean 360 EUR
	// (the paper's PPIA) and exactly 3 competing vendors (the paper's n).
	if math.Abs(survey.Dominant.Center-360) > 0.5 {
		t.Errorf("dominant price center = %.2f, want 360 (PPIA)", survey.Dominant.Center)
	}
	if got := survey.CompetitorCount(); got != 3 {
		t.Errorf("CompetitorCount = %d, want 3 (n of Eq. 7); vendors %v", got, survey.Vendors)
	}
	if survey.Listings != len(sellable) {
		t.Errorf("Listings = %d, want %d", survey.Listings, len(sellable))
	}
	if len(survey.Clusters) != 3 {
		t.Errorf("clusters = %d, want 3", len(survey.Clusters))
	}
}

func TestMinePricesComponentsVCU(t *testing.T) {
	ds := mustDataset(t)
	comps := ds.Listings.Select(CategoryDPFTampering, "EU", "component")
	survey, err := MinePrices(comps, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(survey.Dominant.Center-50) > 0.5 {
		t.Errorf("component price center = %.2f, want 50 (VCU)", survey.Dominant.Center)
	}
}

func TestMinePricesErrors(t *testing.T) {
	if _, err := MinePrices(nil, 3); err == nil {
		t.Error("empty selection accepted")
	}
	ds := mustDataset(t)
	if _, err := MinePrices(ds.Listings.Select("", "", ""), 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestListingValidation(t *testing.T) {
	bad := []*Listing{
		{ID: "", Category: "c", Vendor: "v", Kind: "device", Text: "100€"},
		{ID: "x", Category: "c", Vendor: "v", Kind: "warp-drive", Text: "100€"},
		{ID: "x", Category: "c", Vendor: "v", Kind: "device", Text: "no price here"},
	}
	for i, l := range bad {
		if _, err := NewListingsDB([]*Listing{l}); err == nil {
			t.Errorf("case %d: invalid listing accepted: %+v", i, l)
		}
	}
}

func TestListingsSelectFilters(t *testing.T) {
	ds := mustDataset(t)
	all := ds.Listings.Select("", "", "")
	if len(all) != ds.Listings.Len() {
		t.Errorf("empty filters should select everything: %d vs %d", len(all), ds.Listings.Len())
	}
	services := ds.Listings.Select(CategoryDPFTampering, "", "service")
	if len(services) != 3 {
		t.Errorf("services = %d, want 3", len(services))
	}
}
