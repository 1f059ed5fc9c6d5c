// Package umetrics implements the case-study domain of the paper: the
// seven UMETRICS/USDA tables, a seeded synthetic data generator calibrated
// to the structural properties the paper reports (Figure 2 sizes, award
// number formats, title distributions, one-to-many sub-award structure,
// missing values, the NC/NRSP pathology), the ground truth behind the
// generator, the Section 6 pre-processing pipeline, the match definition
// (M1 plus the later-discovered rules), the IRIS rule-based baseline, and
// an end-to-end CaseStudy runner that reproduces every number the paper
// walks through.
//
// The real UMETRICS and USDA data are proprietary; see DESIGN §2 for why
// this synthetic substitute preserves the behaviour that matters.
package umetrics

// commonWords are high-frequency title words; they give unrelated titles
// enough token overlap that blocking has real work to do (the paper's C2
// had ~3x more candidates than true matches).
var commonWords = []string{
	"research", "development", "wisconsin", "production", "management",
	"analysis", "study", "systems", "agricultural", "improvement",
	"evaluation", "effects", "applications", "program", "assessment",
	"north", "central", "states", "integrated", "sustainable",
}

// rareWords are the domain-specific title vocabulary.
var rareWords = []string{
	"corn", "maize", "soybean", "wheat", "oat", "barley", "alfalfa",
	"cranberry", "potato", "carrot", "ginseng", "hops", "canola",
	"dairy", "cattle", "swine", "poultry", "sheep", "bovine", "calf",
	"genetics", "genomics", "epigenetic", "silencing", "genes", "qtl",
	"breeding", "phenotype", "heritability", "genotype", "markers",
	"fungicide", "herbicide", "pesticide", "insecticide", "nematode",
	"pathogen", "rust", "blight", "mosaic", "wilt", "rot", "scab",
	"dodder", "cuscuta", "gronovii", "weed", "invasive", "biocontrol",
	"ecology", "habitat", "wetland", "prairie", "watershed", "runoff",
	"nitrogen", "phosphorus", "potassium", "soil", "tillage", "erosion",
	"irrigation", "drainage", "nutrient", "manure", "compost", "silage",
	"economics", "markets", "policy", "trade", "cooperatives", "finance",
	"rural", "urban", "interface", "wildland", "forestry", "timber",
	"maple", "aspen", "conifer", "hardwood", "biomass", "bioenergy",
	"ethanol", "cellulosic", "fermentation", "enzymes", "microbial",
	"bacteria", "fungi", "mycorrhizae", "rhizosphere", "microbiome",
	"nutrition", "dietary", "protein", "lipids", "vitamins", "minerals",
	"food", "safety", "processing", "storage", "packaging", "quality",
	"cheese", "butter", "yogurt", "whey", "lactose", "casein",
	"milk", "lactation", "mastitis", "reproduction", "fertility",
	"embryo", "ovulation", "hormones", "metabolism", "immunology",
	"vaccine", "parasites", "johnes", "brucellosis", "tuberculosis",
	"climate", "drought", "frost", "temperature", "precipitation",
	"modeling", "simulation", "remote", "sensing", "spatial",
	"landscape", "conservation", "biodiversity", "pollinators", "bees",
	"apple", "cherry", "grape", "strawberry", "raspberry", "vegetable",
	"greenhouse", "hydroponic", "organic", "certification", "extension",
	"outreach", "education", "communities", "labor", "migration",
	"dodder2", "agroforestry", "silvopasture", "grazing", "pasture",
	"forage", "rotation", "cover", "crops", "residue", "mulch",
	"aquaculture", "fisheries", "trout", "perch", "walleye", "sturgeon",
	"epidemiology", "surveillance", "diagnostics", "biosecurity",
	"transgenic", "crispr", "transcriptome", "proteomics", "metabolomics",
	"kernel", "endosperm", "germplasm", "cultivar", "hybrid", "inbred",
	"tassel", "pollen", "anthesis", "senescence", "photosynthesis",
	"chlorophyll", "stomata", "roots", "canopy", "biometrics",
}

// genericTitles are the "not unique enough" titles of Section 8 that even
// the domain experts could not decide on.
var genericTitles = []string{
	"Lab Supplies",
	"Equipment Purchase",
	"Research Support",
	"Graduate Student Support",
	"Field Station Operations",
	"General Operating Funds",
}

// lastNames and firstInitials build employee and project-director names.
var lastNames = []string{
	"Kermicle", "Hammer", "Esker", "Colquhoun", "Smith", "Johnson",
	"Anderson", "Nelson", "Larson", "Olson", "Thompson", "Peterson",
	"Schmidt", "Mueller", "Meyer", "Wagner", "Becker", "Schultz",
	"Hoffman", "Weber", "Fischer", "Koch", "Richter", "Wolf",
	"Zimmerman", "Krueger", "Lehmann", "Huber", "Mayer", "Fuchs",
	"Tracy", "Shaver", "Wattiaux", "Goldberg", "Jackson", "Barak",
	"Bland", "Ruark", "Lauer", "Conley", "Gaska", "Mourtzinis",
	"Silva", "Ortiz", "Gutierrez", "Rivera", "Chen", "Wang",
	"Kim", "Patel", "Singh", "Kumar", "Ahmed", "Ali",
}

var firstInitials = []string{
	"J.L", "R", "P.D", "J", "A.M", "K.E", "M", "S.T", "D.R", "C",
	"B.W", "E.J", "T.M", "L", "N.K", "G.H", "W.F", "V", "H.R", "F.O",
}

// agencies and mechanisms fill the USDA categorical columns.
var sponsoringAgencies = []string{
	"NIFA", "State Agricultural Experiment Station", "ARS", "CSREES",
	"Forest Service", "Animal and Plant Health Inspection Service",
}

var fundingMechanisms = []string{
	"Federal Grant", "State Funding", "Hatch", "McIntire-Stennis",
	"Special Grant", "Competitive Grant",
}

// cfdaPrefixes are the CFDA program numbers seen in UniqueAwardNumber
// ("10.200 2008-34103-19449").
var cfdaPrefixes = []string{
	"10.200", "10.203", "10.205", "10.215", "10.216", "10.250",
	"10.303", "10.310", "10.500", "10.652",
}

// orgUnitNames fill the UMETRICSOrgUnitsMatching table.
var orgUnitNames = []string{
	"Agronomy", "Animal Sciences", "Bacteriology", "Biochemistry",
	"Dairy Science", "Entomology", "Food Science", "Forest Ecology",
	"Genetics", "Horticulture", "Plant Pathology", "Soil Science",
	"Agricultural Economics", "Biological Systems Engineering",
	"Nutritional Sciences", "Life Sciences Communication",
}

// vendorNames fill the UMETRICSVendorMatching table.
var vendorNames = []string{
	"Fisher Scientific", "VWR International", "Sigma-Aldrich",
	"Midwest Seed Supply", "Badger Laboratory Services", "Dane Count Ag Co-op",
	"Promega", "Bio-Rad Laboratories", "Thermo Electron", "Agilent",
	"Madison Gas and Electric", "University Housing", "DigiKey",
	"Grainger Industrial", "McMaster-Carr", "Airgas USA",
}

// jobTitles and occupations fill the employees table.
var jobTitles = []string{
	"Professor", "Associate Professor", "Assistant Professor",
	"Research Associate", "Postdoctoral Fellow", "Research Assistant",
	"Graduate Student", "Undergraduate Assistant", "Lab Manager",
	"Research Specialist", "Field Technician", "Data Analyst",
}

var occupationalClasses = []string{
	"Faculty", "Post Graduate Research", "Graduate Student",
	"Undergraduate", "Research Staff", "Technical Staff",
}

// objectCodeTexts fill the object-codes lookup table.
var objectCodeTexts = []string{
	"Salaries", "Fringe Benefits", "Supplies", "Equipment", "Travel",
	"Tuition Remission", "Subcontracts", "Publication Costs",
	"Facilities Rental", "Communications", "Maintenance", "Overhead",
}
