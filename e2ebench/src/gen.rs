//! Seeded input generation. Every workload draws its inputs from its
//! `--seed` alone; the program under test only ever sees the generated
//! pattern text (and, for why-queries, the cardinality goal).

use std::collections::HashSet;
use whyq_core::CardinalityGoal;

/// SplitMix64: a small, fixed PRNG, so the inputs of a seed never change
/// when a dependency's generator does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0xD1B5_4A32_D192_ED03)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = u64::try_from(hi - lo).expect("non-empty range");
        lo + i64::try_from(self.next_u64() % span).expect("span fits i64")
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next_u64() % n as u64).expect("index fits usize")
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// One element of `xs`, uniformly.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// An index below `n` under a Zipf(1)-like law: index `k` is drawn
    /// with probability about proportional to 1 / (k + 1), so index 0 is
    /// the most frequent and the tail stays reachable. Constant time, so
    /// `n` may run to millions.
    pub fn zipf(&mut self, n: usize) -> usize {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let k = ((n as f64 + 1.0).powf(u) - 1.0).floor() as usize;
        k.min(n - 1)
    }
}

/// Which generated graph an input runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// `whyq_datagen::ldbc_graph` at the workload's scale.
    Ldbc,
    /// `whyq_datagen::dbpedia_graph` at its default scale.
    Dbpedia,
}

/// One why-query: the text the analyst types and the goal they state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhyInput {
    /// Graph the query runs against.
    pub dataset: Dataset,
    /// Pattern text in the `whyq_query::parser` syntax.
    pub text: String,
    /// The declared cardinality goal.
    pub goal: CardinalityGoal,
}

// Constants that occur in the generated graphs (see whyq_datagen).
const FIRST_NAMES: [&str; 20] = [
    "Anna", "Bert", "Carlos", "Dana", "Emil", "Fatima", "Gustav", "Hana", "Ivan", "Jun", "Karl",
    "Lena", "Miguel", "Nadia", "Otto", "Priya", "Quentin", "Rosa", "Sven", "Tao",
];
const COUNTRIES: [&str; 10] = [
    "Germany", "France", "Spain", "Italy", "Poland", "China", "India", "USA", "Brazil", "Japan",
];
const TAGS: [&str; 18] = [
    "music",
    "sports",
    "cooking",
    "travel",
    "books",
    "movies",
    "science",
    "history",
    "photography",
    "gaming",
    "art",
    "politics",
    "fashion",
    "hiking",
    "chess",
    "gardening",
    "astronomy",
    "databases",
];
const BROWSERS: [&str; 4] = ["Chrome", "Firefox", "Safari", "Opera"];
const LANGUAGES: [&str; 5] = ["en", "de", "es", "zh", "pt"];
const GENDERS: [&str; 2] = ["male", "female"];
const DBPEDIA_COUNTRIES: [&str; 8] = [
    "Germany", "France", "Italy", "Japan", "Brazil", "Canada", "Egypt", "India",
];

/// A string constant no generated graph contains: the analyzer proves a
/// predicate on it empty from the value dictionary alone.
fn unknown(rng: &mut Rng, stem: &str) -> String {
    format!("{stem}{}", rng.range(0, 1_000_000))
}

/// A city name of the LDBC generator (`<Country>-City-<k>`).
fn city(rng: &mut Rng) -> String {
    format!("{}-City-{}", rng.pick(&COUNTRIES), rng.range(0, 3))
}

/// Failure sites of each template of [`failing_variant`], by index.
const FAILURE_SITES: [usize; 10] = [4, 4, 4, 4, 3, 3, 3, 3, 2, 2];

/// Every way to break one or two of `sites` failure sites: all singles,
/// then all pairs.
fn failure_sets(sites: usize) -> Vec<Vec<bool>> {
    let mut out = Vec::new();
    for a in 0..sites {
        let mut f = vec![false; sites];
        f[a] = true;
        out.push(f);
    }
    for a in 0..sites {
        for b in a + 1..sites {
            let mut f = vec![false; sites];
            f[a] = true;
            f[b] = true;
            out.push(f);
        }
    }
    out
}

/// Wrap non-empty properties in braces, with a leading space.
fn props(items: &[String]) -> String {
    let items: Vec<&str> = items
        .iter()
        .map(String::as_str)
        .filter(|s| !s.is_empty())
        .collect();
    if items.is_empty() {
        String::new()
    } else {
        format!(" {{{}}}", items.join(", "))
    }
}

/// One failing variant of an LDBC QUERY 1–4 shape, a path-k query or a
/// DBpedia QUERY 1–3 shape. Each failure site is either an unknown string
/// (proved empty by the analyzer) or an out-of-domain numeric range (only
/// execution shows it empty); satisfiable sites vary their constants
/// within the data's domain.
fn failing_variant(rng: &mut Rng, template: usize, f: &[bool]) -> (Dataset, String) {
    match template {
        0 => {
            // LDBC QUERY 1: name-anchored path
            let name = if f[0] {
                unknown(rng, "Zarathustra")
            } else {
                rng.pick(&FIRST_NAMES).to_string()
            };
            let p2 = if f[1] {
                format!("birthYear >= {}", rng.range(2001, 100_000))
            } else if rng.chance(0.5) {
                format!("gender: '{}'", rng.pick(&GENDERS))
            } else {
                String::new()
            };
            let knows = if f[2] {
                format!("since < {}", rng.range(0, 2000))
            } else {
                format!("since >= {}", rng.range(1990, 2004))
            };
            let c = if f[3] {
                format!("name: '{}'", unknown(rng, "Atlantis"))
            } else {
                String::new()
            };
            (
                Dataset::Ldbc,
                format!(
                    "(p1:person {{firstName: '{name}'}})-[:knows{}]->(p2:person{})\
                     -[:isLocatedIn]->(city:city{})",
                    props(&[knows]),
                    props(&[p2]),
                    props(&[c])
                ),
            )
        }
        1 => {
            // LDBC QUERY 2: attribute-heavy star
            let gender = if f[0] {
                unknown(rng, "gender")
            } else {
                rng.pick(&GENDERS).to_string()
            };
            let work = if f[1] {
                rng.range(2016, 100_000)
            } else {
                rng.range(1990, 2012)
            };
            let tag = if f[2] {
                unknown(rng, "unobtainium")
            } else {
                rng.pick(&TAGS).to_string()
            };
            let born = if f[3] {
                format!("birthYear < {}", rng.range(0, 1950))
            } else {
                String::new()
            };
            (
                Dataset::Ldbc,
                format!(
                    "(p:person{})-[:workAt {{workFrom >= {work}}}]->(co:company); \
                     (p)-[:isLocatedIn]->(city:city); (p)-[:hasInterest]->(tag:tag {{name: '{tag}'}})",
                    props(&[format!("gender: '{gender}'"), born])
                ),
            )
        }
        2 => {
            // LDBC QUERY 3: co-location triangle
            let c = if f[0] {
                format!("name: '{}'", unknown(rng, "Atlantis"))
            } else if rng.chance(0.5) {
                format!("name: '{}'", city(rng))
            } else {
                String::new()
            };
            let p1 = if f[1] {
                format!("browserUsed: '{}'", unknown(rng, "Mosaic"))
            } else {
                format!("browserUsed: '{}'", rng.pick(&BROWSERS))
            };
            let knows = if f[2] {
                format!("since >= {}", rng.range(2016, 100_000))
            } else {
                String::new()
            };
            let p2 = if f[3] {
                format!("birthYear >= {}", rng.range(2001, 100_000))
            } else {
                String::new()
            };
            (
                Dataset::Ldbc,
                format!(
                    "(p1:person{})-[:knows{}]->(p2:person{})-[:isLocatedIn]->(city:city{}); \
                     (p1)-[:isLocatedIn]->(city)",
                    props(&[p1]),
                    props(&[knows]),
                    props(&[p2]),
                    props(&[c])
                ),
            )
        }
        3 => {
            // LDBC QUERY 4: deep content path
            let lang = if f[0] {
                unknown(rng, "xx")
            } else {
                rng.pick(&LANGUAGES).to_string()
            };
            let study = if f[1] {
                format!("classYear >= {}", rng.range(2013, 100_000))
            } else {
                String::new()
            };
            let cm = if f[2] {
                format!("length >= {}", rng.range(200, 100_000))
            } else {
                String::new()
            };
            let post = if f[3] {
                format!("creationDate < {}", rng.range(0, 2008))
            } else {
                String::new()
            };
            (
                Dataset::Ldbc,
                format!(
                    "(cm:comment{})-[:replyOf]->(post:post{})-[:hasCreator]->(p:person)\
                     -[:studyAt{}]->(u:university)",
                    props(&[cm]),
                    props(&[format!("language: '{lang}'"), post]),
                    props(&[study])
                ),
            )
        }
        4..=6 => {
            // path-k, k = 1..=3: k knows hops ending in a city lookup
            let hops = template - 3;
            let c = if f[0] {
                unknown(rng, "Nowhere")
            } else {
                city(rng)
            };
            let broken_hop = rng.below(hops);
            let mut text = String::new();
            for i in 0..=hops {
                let born = if f[1] && i == hops {
                    format!("birthYear >= {}", rng.range(2001, 100_000))
                } else {
                    String::new()
                };
                text.push_str(&format!("(p{i}:person{})", props(&[born])));
                if i < hops {
                    let since = if f[2] && i == broken_hop {
                        format!("since < {}", rng.range(0, 2000))
                    } else {
                        String::new()
                    };
                    text.push_str(&format!("-[:knows{}]->", props(&[since])));
                }
            }
            text.push_str(&format!("-[:isLocatedIn]->(city:city {{name: '{c}'}})"));
            (Dataset::Ldbc, text)
        }
        7 => {
            // DBPEDIA QUERY 1: film - person - settlement - country
            let country = if f[0] {
                unknown(rng, "Borduria")
            } else {
                rng.pick(&DBPEDIA_COUNTRIES).to_string()
            };
            let p = if f[1] {
                format!("birthYear >= {}", rng.range(2000, 100_000))
            } else {
                String::new()
            };
            let s = if f[2] {
                format!("population >= {}", rng.range(20_000_001, 2_000_000_000))
            } else {
                String::new()
            };
            (
                Dataset::Dbpedia,
                format!(
                    "(f:film)-[:starring]->(p:person{})-[:birthPlace]->(s:settlement{})\
                     -[:country]->(c:country {{name: '{country}'}})",
                    props(&[p]),
                    props(&[s])
                ),
            )
        }
        8 => {
            // DBPEDIA QUERY 2: book - author - employer
            let founded = if f[0] {
                rng.range(2015, 100_000)
            } else {
                rng.range(1850, 2000)
            };
            let p = if f[1] {
                format!("birthYear < {}", rng.range(0, 1800))
            } else {
                String::new()
            };
            (
                Dataset::Dbpedia,
                format!(
                    "(b:book)-[:author]->(p:person{})-[:employer]->(o:organisation \
                     {{foundingYear >= {founded}}})",
                    props(&[p])
                ),
            )
        }
        _ => {
            // DBPEDIA QUERY 3: birth-year window - settlement size
            let (lo, hi) = if f[0] {
                let lo = rng.range(0, 1700);
                (lo, lo + rng.range(10, 90))
            } else {
                let lo = rng.range(1800, 1950);
                (lo, lo + rng.range(20, 50))
            };
            let pop = if f[1] {
                rng.range(20_000_001, 2_000_000_000)
            } else {
                rng.range(1000, 50_000)
            };
            (
                Dataset::Dbpedia,
                format!(
                    "(p:person {{birthYear >= {lo}, birthYear <= {hi}}})-[:birthPlace]->\
                     (s:settlement {{population >= {pop}}})"
                ),
            )
        }
    }
}

/// The `why-empty` stream: `n` distinct failing queries, goal `NonEmpty`.
/// Templates take turns and each cycles through its failure sets from a
/// seeded offset, so every seed runs the same mix of shapes and failure
/// kinds with different constants.
pub fn why_empty_inputs(seed: u64, n: usize) -> Vec<WhyInput> {
    let mut rng = Rng::new(seed);
    let sets: Vec<Vec<Vec<bool>>> = FAILURE_SITES.iter().map(|&s| failure_sets(s)).collect();
    let offsets: Vec<usize> = sets.iter().map(|s| rng.below(s.len())).collect();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t = i % sets.len();
        let fail = &sets[t][(i / sets.len() + offsets[t]) % sets[t].len()];
        loop {
            let (dataset, text) = failing_variant(&mut rng, t, fail);
            if seen.insert(text.clone()) {
                out.push(WhyInput {
                    dataset,
                    text,
                    goal: CardinalityGoal::NonEmpty,
                });
                break;
            }
        }
    }
    out
}

/// The bounded family of satisfiable LDBC-shaped queries `why-card` draws
/// from: every combination of the constants below, in a fixed order.
pub fn why_card_family() -> Vec<String> {
    let mut out = Vec::new();
    for name in FIRST_NAMES {
        out.push(format!(
            "(p1:person {{firstName: '{name}'}})-[:knows]->(p2:person)-[:isLocatedIn]->(city:city)"
        ));
    }
    for gender in GENDERS {
        for work in [2000, 2005, 2010] {
            for tag in TAGS {
                out.push(format!(
                    "(p:person {{gender: '{gender}'}})-[:workAt {{workFrom >= {work}}}]->\
                     (co:company); (p)-[:isLocatedIn]->(city:city); \
                     (p)-[:hasInterest]->(tag:tag {{name: '{tag}'}})"
                ));
            }
        }
    }
    for browser in BROWSERS {
        out.push(format!(
            "(p1:person {{browserUsed: '{browser}'}})-[:knows]->(p2:person)\
             -[:isLocatedIn]->(city:city); (p1)-[:isLocatedIn]->(city)"
        ));
    }
    for lang in LANGUAGES {
        out.push(format!(
            "(cm:comment)-[:replyOf]->(post:post {{language: '{lang}'}})\
             -[:hasCreator]->(p:person)-[:studyAt]->(u:university)"
        ));
    }
    out
}

/// The cardinality factors of the §3.2.5 evaluation.
pub const CARD_FACTORS: [f64; 4] = [0.2, 0.5, 2.0, 5.0];

/// The goal at `factor` of the oracle cardinality `c1`, or `None` when it
/// is already met or cannot be stated (a threshold that rounds to 0).
pub fn card_goal(c1: u64, factor: f64) -> Option<CardinalityGoal> {
    if c1 == 0 {
        return None;
    }
    let t = factor * c1 as f64;
    let goal = if factor < 1.0 {
        CardinalityGoal::AtMost(t.floor() as u64)
    } else {
        CardinalityGoal::AtLeast(t.ceil() as u64)
    };
    match goal {
        CardinalityGoal::AtMost(0) => None,
        g if g.satisfied(c1) => None,
        g => Some(g),
    }
}

/// The `why-card` inputs: every (family index, factor) pair once per
/// cycle, in a seeded order, for `n` draws. Every seed runs the same mix;
/// goals are fixed later from the oracle count of each query.
pub fn why_card_draws(seed: u64, n: usize) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = (0..why_card_family().len())
        .flat_map(|k| CARD_FACTORS.iter().map(move |&f| (k, f)))
        .collect();
    let mut rng = Rng::new(seed);
    for i in (1..all.len()).rev() {
        all.swap(i, rng.below(i + 1));
    }
    all.iter().copied().cycle().take(n).collect()
}

/// A prime above every constant space of [`serve_pattern`]; multiplying a
/// rank by it permutes the space, so the popular ranks land on scattered
/// constants rather than on the smallest ones.
const SCATTER: u64 = 2_147_483_647;

/// Constants of one `serve` shape: a Zipf-ranked draw from the space of
/// all combinations of `sizes` choices, one index per choice.
fn ranked(rng: &mut Rng, sizes: &[usize]) -> Vec<usize> {
    let space: usize = sizes.iter().product();
    let rank = rng.zipf(space) as u64;
    let mut k = usize::try_from(rank * SCATTER % space as u64).expect("index fits usize");
    sizes
        .iter()
        .map(|&n| {
            let i = k % n;
            k /= n;
            i
        })
        .collect()
}

/// Birth years of the LDBC generator, and the widest range drawn on them.
const BIRTH_YEARS: (i64, usize) = (1950, 50);
/// Post lengths of the LDBC generator, and the widest range drawn on them.
const POST_LENGTHS: (i64, usize) = (10, 490);

/// The range `attr >= lo, attr < lo + width` from a start index and a
/// width index within `domain`.
fn range(attr: &str, domain: (i64, usize), start: usize, width: usize) -> String {
    let lo = domain.0 + start as i64;
    format!("{attr} >= {lo}, {attr} < {}", lo + 1 + width as i64)
}

/// One `serve` pattern: an LDBC shape whose constants are drawn under a
/// Zipf law. Three shapes range over tens of thousands to millions of
/// constant combinations, far more than the 1024-entry sibling cache and
/// the 256-plan cache hold, so their popular combinations replay from the
/// caches while the tail executes; two shapes have a few dozen
/// combinations, which replay and can coalesce in one batch window.
pub fn serve_pattern(rng: &mut Rng) -> String {
    let (b0, bw) = BIRTH_YEARS;
    let (l0, lw) = POST_LENGTHS;
    match rng.below(5) {
        0 => {
            let k = ranked(rng, &[FIRST_NAMES.len(), bw, bw]);
            format!(
                "(p:person {{firstName: '{}', {}}})-[:knows]->(q:person)",
                FIRST_NAMES[k[0]],
                range("birthYear", (b0, bw), k[1], k[2])
            )
        }
        1 => {
            let k = ranked(rng, &[COUNTRIES.len() * 3, bw, bw]);
            format!(
                "(p:person {{{}}})-[:isLocatedIn]->(c:city {{name: '{}-City-{}'}})",
                range("birthYear", (b0, bw), k[1], k[2]),
                COUNTRIES[k[0] / 3],
                k[0] % 3
            )
        }
        2 => {
            let k = ranked(rng, &[BROWSERS.len(), TAGS.len()]);
            format!(
                "(p:person {{browserUsed: '{}'}})-[:hasInterest]->(t:tag {{name: '{}'}})",
                BROWSERS[k[0]], TAGS[k[1]]
            )
        }
        3 => format!(
            "(p:person)-[:workAt {{workFrom >= {}}}]->(c:company)",
            2015 - rng.zipf(26)
        ),
        _ => {
            let k = ranked(rng, &[TAGS.len(), lw, lw]);
            format!(
                "(m:post {{{}}})-[:hasTag]->(t:tag {{name: '{}'}})",
                range("length", (l0, lw), k[1], k[2]),
                TAGS[k[0]]
            )
        }
    }
}

/// `n` serve patterns for connection `conn` of a run seeded with `seed`.
pub fn serve_stream(seed: u64, conn: usize, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ (conn as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    (0..n).map(|_| serve_pattern(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn a_seed_always_generates_the_same_inputs() {
        assert_eq!(why_empty_inputs(7, 300), why_empty_inputs(7, 300));
        assert_eq!(why_card_draws(7, 300), why_card_draws(7, 300));
        assert_eq!(serve_stream(7, 1, 300), serve_stream(7, 1, 300));
    }

    #[test]
    fn different_seeds_generate_different_inputs() {
        assert_ne!(why_empty_inputs(1, 300), why_empty_inputs(2, 300));
        assert_ne!(why_card_draws(1, 300), why_card_draws(2, 300));
        assert_ne!(serve_stream(1, 0, 300), serve_stream(2, 0, 300));
        assert_ne!(serve_stream(1, 0, 300), serve_stream(1, 1, 300));
    }

    #[test]
    fn why_empty_inputs_are_distinct_and_parse() {
        let inputs = why_empty_inputs(3, 500);
        let texts: HashSet<&str> = inputs.iter().map(|i| i.text.as_str()).collect();
        assert_eq!(texts.len(), inputs.len());
        for i in &inputs {
            whyq_query::parse_query(&i.text).unwrap_or_else(|e| panic!("{}: {e}", i.text));
        }
        for t in why_card_family() {
            whyq_query::parse_query(&t).unwrap_or_else(|e| panic!("{t}: {e}"));
        }
        for t in serve_stream(3, 0, 200) {
            whyq_query::parse_query(&t).unwrap_or_else(|e| panic!("{t}: {e}"));
        }
    }

    #[test]
    fn serve_patterns_repeat_at_the_head_and_outnumber_the_caches() {
        let stream = serve_stream(4, 0, 20_000);
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for p in &stream {
            *seen.entry(p.as_str()).or_default() += 1;
        }
        // far more distinct patterns than the sibling cache (1024) holds
        assert!(seen.len() > 4 * 1024, "{} distinct", seen.len());
        // ... while the popular ones recur
        assert!(seen.values().filter(|&&n| n >= 10).count() > 50);
        let mut rng = Rng::new(1);
        assert!((0..10_000).all(|_| rng.zipf(7) < 7));
    }

    #[test]
    fn card_goals_are_unmet_and_stated() {
        assert_eq!(card_goal(10, 0.2), Some(CardinalityGoal::AtMost(2)));
        assert_eq!(card_goal(10, 5.0), Some(CardinalityGoal::AtLeast(50)));
        assert_eq!(card_goal(3, 0.2), None);
        assert_eq!(card_goal(0, 2.0), None);
        for c1 in 1..200 {
            for f in CARD_FACTORS {
                if let Some(g) = card_goal(c1, f) {
                    assert!(!g.satisfied(c1), "{g:?} met by {c1}");
                }
            }
        }
    }
}
