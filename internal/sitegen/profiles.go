// Package sitegen generates deterministic synthetic websites that mirror the
// statistical structure of the paper's 18 evaluation websites (Table 1):
// page counts, target density, fraction of target-linking HTML pages, target
// size distributions, depth profiles, URL styles (including extension-less
// URLs), multilinguality, and site-specific DOM template families whose tag
// paths correlate with target-rich areas — the correlation SB-CLASSIFIER
// exploits.
//
// The crawler under test never sees the generator; it sees URLs, HTML bytes,
// MIME types, and HTTP statuses through internal/webserver and the same
// fetch.Fetcher interface that fetch.HTTP implements for live hosts.
//
// A page renders on demand, and always to the same bytes: its text is drawn
// from math/rand's stream for a seed of the site's seed and the page's ID.
// Renders share that stream through a lazily seeded source (source.go),
// parked between renders and re-seeded in O(1), so a page pays for the
// numbers it draws rather than for seeding 607 state words. An HTML page is
// rendered in one append pass into a parked scratch: its words, hrefs and
// template items are written there piece by piece, with no fmt and no
// string built per word or link. RenderPage returns an exact-size copy of
// the scratch, and ViewHTML lends the scratch itself to a caller that only
// reads it (a HEAD's length, a federation's rewrite). A target is written
// into one slice allocated at its SizeB.
package sitegen

import "sbcrawl/internal/faultsim"

// Profile describes one synthetic website, with parameters lifted from
// Table 1 (and Table 7 for SD yields) of the paper.
type Profile struct {
	// Code is the two-letter site code used throughout the paper (ab…wo).
	Code string
	// Name is a human-readable description.
	Name string
	// Host is the site hostname used to build URLs.
	Host string
	// Multilingual mirrors the "Mlg." column.
	Multilingual bool
	// FullyCrawled mirrors the "F. C." column; hyper-parameter studies run
	// only on fully crawled sites.
	FullyCrawled bool
	// AvailablePages is the paper's "#Available (k)" in pages (×1000).
	AvailablePages int
	// TargetFrac is #Target / #Available.
	TargetFrac float64
	// HubFrac is "HTML to T. (%)" — the fraction of HTML pages linking to
	// at least one target.
	HubFrac float64
	// TargetSizeMeanMB and TargetSizeStdMB give the target size
	// distribution (log-normal, matched in expectation).
	TargetSizeMeanMB float64
	TargetSizeStdMB  float64
	// DepthMean and DepthStd give the target depth profile.
	DepthMean float64
	DepthStd  float64
	// ErrorRate is the fraction of extra URLs answering 4xx/5xx.
	ErrorRate float64
	// RedirectRate is the fraction of extra URLs answering 3xx.
	RedirectRate float64
	// ExtensionlessTargets is the fraction of target URLs without a file
	// extension (e.g. ilo.org, justice.gouv.fr examples of Sec. 3.3).
	ExtensionlessTargets float64
	// SDYield is the fraction of targets containing at least one
	// statistics table, and SDPerTarget the mean count among all sampled
	// targets (Table 7; defaults for sites the paper did not sample).
	SDYield     float64
	SDPerTarget float64
	// UniqueIDs makes templates stamp unique id attributes into wrapper
	// elements, the pathology that blows up θ=0.95 on ed (Sec. 4.6).
	UniqueIDs bool
	// Languages lists the URL/text vocabularies in use.
	Languages []string
	// Faults, when non-nil, is the site's server-side fault schedule
	// (faultsim.Schedule): scheduled URLs answer 503/429 with Retry-After
	// for their first attempts before serving their real page
	// (webserver.Flaky compiles it per crawl). Pure data — profiles stay
	// serializable — and nil for all built-in Table 1 profiles. Only the
	// frozen benchmark reads it: the crawl API injects faults transport-side
	// (fetch.FaultInjector) from its own Config.
	Faults *faultsim.Schedule
}

// Profiles are the 18 sites of Table 1, in the paper's order. Numbers are
// the paper's; pages are stored unscaled and reduced by Config.Scale.
var Profiles = []Profile{
	{Code: "ab", Name: "Australian Bureau of Statistics", Host: "www.abs.gov.au",
		AvailablePages: 952260, TargetFrac: 0.2764, HubFrac: 0.0886,
		TargetSizeMeanMB: 4.50, TargetSizeStdMB: 56.04, DepthMean: 8.94, DepthStd: 2.56,
		ErrorRate: 0.05, RedirectRate: 0.02, SDYield: 0.50, SDPerTarget: 2.0,
		Languages: []string{"en"}},
	{Code: "as", Name: "French National Assembly", Host: "www.assemblee-nationale.fr",
		AvailablePages: 949420, TargetFrac: 0.1643, HubFrac: 0.0434,
		TargetSizeMeanMB: 0.54, TargetSizeStdMB: 6.38, DepthMean: 5.84, DepthStd: 1.07,
		ErrorRate: 0.04, RedirectRate: 0.02, SDYield: 0.50, SDPerTarget: 2.0,
		Languages: []string{"fr"}},
	{Code: "be", Name: "US Bureau of Economic Analysis", Host: "www.bea.gov",
		FullyCrawled:   true,
		AvailablePages: 31230, TargetFrac: 0.5072, HubFrac: 0.3219,
		TargetSizeMeanMB: 2.03, TargetSizeStdMB: 6.99, DepthMean: 5.73, DepthStd: 3.21,
		ErrorRate: 0.05, RedirectRate: 0.02, SDYield: 0.82, SDPerTarget: 9.1,
		Languages: []string{"en"}},
	{Code: "ce", Name: "US Census", Host: "www.census.gov",
		AvailablePages: 988370, TargetFrac: 0.2607, HubFrac: 0.0347,
		TargetSizeMeanMB: 1.51, TargetSizeStdMB: 15.77, DepthMean: 4.23, DepthStd: 0.48,
		ErrorRate: 0.05, RedirectRate: 0.02, SDYield: 0.50, SDPerTarget: 2.0,
		Languages: []string{"en"}},
	{Code: "cl", Name: "French Local Communities", Host: "www.collectivites-locales.gouv.fr",
		FullyCrawled:   true,
		AvailablePages: 5540, TargetFrac: 0.6678, HubFrac: 0.0540,
		TargetSizeMeanMB: 1.15, TargetSizeStdMB: 4.91, DepthMean: 2.80, DepthStd: 0.82,
		ErrorRate: 0.03, RedirectRate: 0.01, SDYield: 0.60, SDPerTarget: 2.5,
		Languages: []string{"fr"}},
	{Code: "cn", Name: "French Council for Statistical Information", Host: "www.cnis.fr",
		FullyCrawled:   true,
		AvailablePages: 12800, TargetFrac: 0.5852, HubFrac: 0.1387,
		TargetSizeMeanMB: 0.43, TargetSizeStdMB: 1.74, DepthMean: 4.26, DepthStd: 1.59,
		ErrorRate: 0.04, RedirectRate: 0.02, SDYield: 0.60, SDPerTarget: 2.5,
		Languages: []string{"fr"}},
	{Code: "ed", Name: "French Ministry of Education", Host: "www.education.gouv.fr",
		FullyCrawled:   true,
		AvailablePages: 102710, TargetFrac: 0.1019, HubFrac: 0.0395,
		TargetSizeMeanMB: 1.00, TargetSizeStdMB: 3.07, DepthMean: 11.89, DepthStd: 13.22,
		ErrorRate: 0.05, RedirectRate: 0.03, SDYield: 0.35, SDPerTarget: 2.8,
		UniqueIDs: true,
		Languages: []string{"fr"}},
	{Code: "il", Name: "UN International Labor Organization", Host: "www.ilo.org",
		Multilingual:   true,
		AvailablePages: 990710, TargetFrac: 0.0818, HubFrac: 0.0253,
		TargetSizeMeanMB: 13.40, TargetSizeStdMB: 110.01, DepthMean: 4.26, DepthStd: 1.28,
		ErrorRate: 0.06, RedirectRate: 0.03, ExtensionlessTargets: 0.6,
		SDYield: 0.50, SDPerTarget: 2.0,
		Languages: []string{"en", "fr", "es"}},
	{Code: "in", Name: "French Ministry of Interior", Host: "www.interieur.gouv.fr",
		FullyCrawled:   true,
		AvailablePages: 922460, TargetFrac: 0.0249, HubFrac: 0.0154,
		TargetSizeMeanMB: 1.12, TargetSizeStdMB: 3.06, DepthMean: 66.94, DepthStd: 39.43,
		ErrorRate: 0.05, RedirectRate: 0.02, ExtensionlessTargets: 0.3,
		SDYield: 0.40, SDPerTarget: 2.1,
		Languages: []string{"fr"}},
	{Code: "is", Name: "French Official Statistical Institute", Host: "www.insee.fr",
		Multilingual: true, FullyCrawled: true,
		AvailablePages: 285550, TargetFrac: 0.5914, HubFrac: 0.4134,
		TargetSizeMeanMB: 3.13, TargetSizeStdMB: 21.43, DepthMean: 5.20, DepthStd: 1.81,
		ErrorRate: 0.03, RedirectRate: 0.02, SDYield: 0.93, SDPerTarget: 2.9,
		Languages: []string{"fr", "en"}},
	{Code: "jp", Name: "Japan Ministry of Interior", Host: "www.soumu.go.jp",
		Multilingual:   true,
		AvailablePages: 993870, TargetFrac: 0.3309, HubFrac: 0.0630,
		TargetSizeMeanMB: 0.80, TargetSizeStdMB: 4.49, DepthMean: 5.18, DepthStd: 1.29,
		ErrorRate: 0.04, RedirectRate: 0.02, SDYield: 0.50, SDPerTarget: 2.0,
		Languages: []string{"ja", "en"}},
	{Code: "ju", Name: "French Ministry of Justice", Host: "www.justice.gouv.fr",
		FullyCrawled:   true,
		AvailablePages: 56610, TargetFrac: 0.2623, HubFrac: 0.0485,
		TargetSizeMeanMB: 0.48, TargetSizeStdMB: 1.34, DepthMean: 86.91, DepthStd: 86.30,
		ErrorRate: 0.05, RedirectRate: 0.02, ExtensionlessTargets: 0.4,
		SDYield: 0.50, SDPerTarget: 2.0,
		Languages: []string{"fr"}},
	{Code: "nc", Name: "US National Center for Education Statistics", Host: "nces.ed.gov",
		FullyCrawled:   true,
		AvailablePages: 309970, TargetFrac: 0.2740, HubFrac: 0.1887,
		TargetSizeMeanMB: 1.10, TargetSizeStdMB: 11.56, DepthMean: 3.63, DepthStd: 1.66,
		ErrorRate: 0.04, RedirectRate: 0.02, SDYield: 0.83, SDPerTarget: 2.1,
		Languages: []string{"en"}},
	{Code: "oe", Name: "OECD", Host: "www.oecd.org",
		Multilingual: true, FullyCrawled: true,
		AvailablePages: 222580, TargetFrac: 0.2023, HubFrac: 0.1561,
		TargetSizeMeanMB: 2.31, TargetSizeStdMB: 23.37, DepthMean: 6.28, DepthStd: 5.65,
		ErrorRate: 0.05, RedirectRate: 0.02, SDYield: 0.60, SDPerTarget: 4.9,
		Languages: []string{"en", "fr"}},
	{Code: "ok", Name: "Open Knowledge Foundation", Host: "okfn.org",
		Multilingual: true, FullyCrawled: true,
		AvailablePages: 423120, TargetFrac: 0.0306, HubFrac: 0.0074,
		TargetSizeMeanMB: 0.04, TargetSizeStdMB: 0.24, DepthMean: 2.64, DepthStd: 2.89,
		ErrorRate: 0.05, RedirectRate: 0.02, SDYield: 0.50, SDPerTarget: 2.0,
		Languages: []string{"en", "es"}},
	{Code: "qa", Name: "Qatar Official Statistical Service", Host: "www.psa.gov.qa",
		Multilingual: true, FullyCrawled: true,
		AvailablePages: 4360, TargetFrac: 0.5619, HubFrac: 0.0415,
		TargetSizeMeanMB: 2.97, TargetSizeStdMB: 19.28, DepthMean: 3.03, DepthStd: 0.61,
		ErrorRate: 0.03, RedirectRate: 0.01, SDYield: 0.60, SDPerTarget: 2.5,
		Languages: []string{"ar", "en"}},
	{Code: "wh", Name: "UN World Health Organization", Host: "www.who.int",
		Multilingual:   true,
		AvailablePages: 351860, TargetFrac: 0.1580, HubFrac: 0.1419,
		TargetSizeMeanMB: 1.26, TargetSizeStdMB: 11.14, DepthMean: 4.43, DepthStd: 0.62,
		ErrorRate: 0.05, RedirectRate: 0.02, SDYield: 0.40, SDPerTarget: 1.4,
		Languages: []string{"en", "fr", "es"}},
	{Code: "wo", Name: "World Bank", Host: "www.worldbank.org",
		Multilingual:   true,
		AvailablePages: 223670, TargetFrac: 0.1033, HubFrac: 0.0238,
		TargetSizeMeanMB: 2.80, TargetSizeStdMB: 27.16, DepthMean: 4.52, DepthStd: 0.69,
		ErrorRate: 0.05, RedirectRate: 0.02, SDYield: 0.50, SDPerTarget: 2.0,
		Languages: []string{"en", "es"}},
}

// ProfileByCode returns the named profile, or ok=false.
func ProfileByCode(code string) (Profile, bool) {
	for _, p := range Profiles {
		if p.Code == code {
			return p, true
		}
	}
	return Profile{}, false
}

// FullyCrawledCodes lists the 11 fully crawled sites, the population of the
// hyper-parameter studies (Sec. 4.4).
func FullyCrawledCodes() []string {
	var out []string
	for _, p := range Profiles {
		if p.FullyCrawled {
			out = append(out, p.Code)
		}
	}
	return out
}

// Figure4Codes lists the ten sites shown in Figure 4.
var Figure4Codes = []string{"ce", "cl", "ed", "il", "in", "ju", "nc", "ok", "wh", "wo"}

// Table7Codes lists the seven sites sampled for SD yield in Table 7.
var Table7Codes = []string{"be", "ed", "is", "in", "nc", "oe", "wh"}

// langWords are small per-language vocabularies for URL slugs, anchors, and
// page prose; multilingual sites mix several, making anchor-keyword
// approaches (TRES) language-dependent exactly as the paper observes.
var langWords = map[string][]string{
	"en": {"report", "statistics", "population", "economy", "health", "education",
		"survey", "annual", "regional", "indicators", "analysis", "trade",
		"employment", "census", "budget", "overview", "publications", "research"},
	"fr": {"rapport", "statistiques", "population", "economie", "sante", "education",
		"enquete", "annuel", "regional", "indicateurs", "analyse", "commerce",
		"emploi", "recensement", "budget", "apercu", "publications", "recherche"},
	"es": {"informe", "estadisticas", "poblacion", "economia", "salud", "educacion",
		"encuesta", "anual", "regional", "indicadores", "analisis", "comercio",
		"empleo", "censo", "presupuesto", "resumen", "publicaciones"},
	"ja": {"toukei", "jinkou", "keizai", "kenkou", "kyouiku", "chousa", "nenji",
		"chiiki", "shihyou", "bunseki", "boueki", "koyou", "kokusei", "yosan"},
	"ar": {"taqrir", "ihsaat", "sukkan", "iqtisad", "sihha", "taalim", "mash",
		"sanawi", "iqlimi", "muashirat", "tahlil", "tijara", "tawzif"},
}

// downloadWords are per-language dataset-flavoured anchor words; English
// entries overlap with TRES's keyword list on purpose.
var downloadWords = map[string][]string{
	"en": {"download", "dataset", "data file", "spreadsheet", "open data", "export"},
	"fr": {"telecharger", "jeu de donnees", "fichier", "tableur", "donnees ouvertes"},
	"es": {"descargar", "conjunto de datos", "archivo", "hoja de calculo"},
	"ja": {"daunrodo", "detasetto", "fairu", "hyou"},
	"ar": {"tahmil", "majmuat bayanat", "malaf", "jadwal"},
}
