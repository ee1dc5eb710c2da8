//! Rectilinear geometry in integer nanometres.

use std::fmt;

/// An axis-aligned rectangle with integer-nanometre coordinates.
///
/// Invariant: `x0 <= x1` and `y0 <= y1` (enforced by [`Rect::new`]).
/// A rectangle is *closed*: two rectangles sharing only an edge are
/// considered touching (which, for same-layer conductors, means connected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge (nm).
    pub x0: i64,
    /// Bottom edge (nm).
    pub y0: i64,
    /// Right edge (nm).
    pub x1: i64,
    /// Top edge (nm).
    pub y1: i64,
}

impl Rect {
    /// Creates a rectangle, normalising the corner order.
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Rect {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// A square of side `size` centred at `(cx, cy)` — the shape used for
    /// sprinkled spot defects.
    pub fn square(cx: i64, cy: i64, size: i64) -> Self {
        let h = size / 2;
        Rect::new(cx - h, cy - h, cx + size - h, cy + size - h)
    }

    /// Width in nm.
    pub fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    /// Height in nm.
    pub fn height(&self) -> i64 {
        self.y1 - self.y0
    }

    /// Area in nm².
    pub fn area(&self) -> i64 {
        self.width() * self.height()
    }

    /// `true` if the rectangle has zero area.
    pub fn is_degenerate(&self) -> bool {
        self.width() == 0 || self.height() == 0
    }

    /// `true` if `self` and `other` share any point (edges included).
    pub fn touches(&self, other: &Rect) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// `true` if `self` and `other` share interior area (strict overlap).
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// The intersection rectangle, if the two touch.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.touches(other) {
            return None;
        }
        Some(Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        })
    }

    /// `true` if `self` fully contains `other`.
    pub fn contains(&self, other: &Rect) -> bool {
        self.x0 <= other.x0 && self.y0 <= other.y0 && self.x1 >= other.x1 && self.y1 >= other.y1
    }

    /// `true` if the point is inside (edges included).
    pub fn contains_point(&self, x: i64, y: i64) -> bool {
        x >= self.x0 && x <= self.x1 && y >= self.y0 && y <= self.y1
    }

    /// The smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Grows the rectangle by `margin` on every side.
    pub fn expanded(&self, margin: i64) -> Rect {
        Rect::new(
            self.x0 - margin,
            self.y0 - margin,
            self.x1 + margin,
            self.y1 + margin,
        )
    }

    /// Splits `self` by removing the vertical band `[cut.x0, cut.x1]`,
    /// returning the surviving left/right pieces. Used for missing-material
    /// defects that sever a wire. Pieces with zero width are dropped.
    pub fn cut_vertical_band(&self, cut: &Rect) -> Vec<Rect> {
        let mut out = Vec::new();
        if cut.x0 > self.x0 {
            out.push(Rect::new(self.x0, self.y0, cut.x0.min(self.x1), self.y1));
        }
        if cut.x1 < self.x1 {
            out.push(Rect::new(cut.x1.max(self.x0), self.y0, self.x1, self.y1));
        }
        out.retain(|r| !r.is_degenerate());
        out
    }

    /// Splits `self` by removing the horizontal band `[cut.y0, cut.y1]`.
    pub fn cut_horizontal_band(&self, cut: &Rect) -> Vec<Rect> {
        let mut out = Vec::new();
        if cut.y0 > self.y0 {
            out.push(Rect::new(self.x0, self.y0, self.x1, cut.y0.min(self.y1)));
        }
        if cut.y1 < self.y1 {
            out.push(Rect::new(self.x0, cut.y1.max(self.y0), self.x1, self.y1));
        }
        out.retain(|r| !r.is_degenerate());
        out
    }

    /// Applies the severing rule for a missing-material defect: returns
    /// `Some(pieces)` if the defect either removes the shape entirely
    /// (empty vec) or cuts it into disconnected pieces; `None` when the
    /// shape survives connected (defect misses it or only nibbles an edge).
    pub fn sever(&self, defect: &Rect) -> Option<Vec<Rect>> {
        if !self.overlaps(defect) {
            return None;
        }
        if defect.contains(self) {
            return Some(Vec::new());
        }
        let spans_y = defect.y0 <= self.y0 && defect.y1 >= self.y1;
        let spans_x = defect.x0 <= self.x0 && defect.x1 >= self.x1;
        if spans_y && defect.x0 > self.x0 && defect.x1 < self.x1 {
            return Some(self.cut_vertical_band(defect));
        }
        if spans_x && defect.y0 > self.y0 && defect.y1 < self.y1 {
            return Some(self.cut_horizontal_band(defect));
        }
        if spans_y || spans_x {
            // The defect spans the full cross-section but reaches past one
            // end of the shape: it shortens the shape instead of cutting it
            // in two. The remaining single piece stays connected, but may
            // lose contact with abutting shapes, so report it.
            let pieces = if spans_y {
                self.cut_vertical_band(defect)
            } else {
                self.cut_horizontal_band(defect)
            };
            return Some(pieces);
        }
        None
    }
}

impl Rect {
    /// `true` when [`Rect::sever`] would cut `self` into two pieces: the
    /// defect spans the shape's full cross-section strictly inside its
    /// length. Answers without allocating.
    pub fn splits(&self, defect: &Rect) -> bool {
        let spans_y = defect.y0 <= self.y0 && defect.y1 >= self.y1;
        let spans_x = defect.x0 <= self.x0 && defect.x1 >= self.x1;
        self.overlaps(defect)
            && ((spans_y && defect.x0 > self.x0 && defect.x1 < self.x1)
                || (spans_x && defect.y0 > self.y0 && defect.y1 < self.y1))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})..({},{})", self.x0, self.y0, self.x1, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises() {
        let r = Rect::new(10, 20, 0, 5);
        assert_eq!(r, Rect::new(0, 5, 10, 20));
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 15);
        assert_eq!(r.area(), 150);
    }

    #[test]
    fn square_is_centred() {
        let s = Rect::square(100, 100, 10);
        assert_eq!(s.width(), 10);
        assert_eq!(s.height(), 10);
        assert!(s.contains_point(100, 100));
    }

    #[test]
    fn touches_vs_overlaps() {
        let a = Rect::new(0, 0, 10, 10);
        let edge = Rect::new(10, 0, 20, 10);
        assert!(a.touches(&edge));
        assert!(!a.overlaps(&edge));
        let inner = Rect::new(5, 5, 15, 15);
        assert!(a.overlaps(&inner));
        let far = Rect::new(11, 0, 20, 10);
        assert!(!a.touches(&far));
    }

    #[test]
    fn intersection_and_union() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)));
        assert_eq!(a.union(&b), Rect::new(0, 0, 15, 15));
        assert_eq!(a.intersection(&Rect::new(20, 20, 30, 30)), None);
    }

    #[test]
    fn sever_misses() {
        let wire = Rect::new(0, 0, 100, 10);
        assert_eq!(wire.sever(&Rect::new(200, 0, 210, 10)), None);
        // Nibble: does not span the cross-section.
        assert_eq!(wire.sever(&Rect::new(50, 5, 60, 20)), None);
    }

    #[test]
    fn sever_cuts_horizontal_wire() {
        let wire = Rect::new(0, 0, 100, 10);
        let defect = Rect::new(40, -5, 60, 15); // spans y fully
        let pieces = wire.sever(&defect).unwrap();
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0], Rect::new(0, 0, 40, 10));
        assert_eq!(pieces[1], Rect::new(60, 0, 100, 10));
    }

    #[test]
    fn sever_cuts_vertical_wire() {
        let wire = Rect::new(0, 0, 10, 100);
        let defect = Rect::new(-5, 40, 15, 60);
        let pieces = wire.sever(&defect).unwrap();
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0], Rect::new(0, 0, 10, 40));
        assert_eq!(pieces[1], Rect::new(0, 60, 10, 100));
    }

    #[test]
    fn sever_removes_covered_shape() {
        let pad = Rect::new(0, 0, 10, 10);
        let defect = Rect::new(-5, -5, 15, 15);
        assert_eq!(pad.sever(&defect), Some(Vec::new()));
    }

    #[test]
    fn sever_shortens_end_of_wire() {
        let wire = Rect::new(0, 0, 100, 10);
        let defect = Rect::new(80, -5, 120, 15);
        let pieces = wire.sever(&defect).unwrap();
        assert_eq!(pieces, vec![Rect::new(0, 0, 80, 10)]);
    }

    #[test]
    fn splits_is_sever_into_two_pieces() {
        // Every defect with corners on a grid around a 10 × 6 shape.
        let shape = Rect::new(0, 0, 10, 6);
        let coords = -2..=12;
        for x0 in coords.clone() {
            for x1 in x0..=12 {
                for y0 in coords.clone() {
                    for y1 in y0..=12 {
                        let d = Rect::new(x0, y0, x1, y1);
                        let two = shape.sever(&d).is_some_and(|p| p.len() >= 2);
                        assert_eq!(shape.splits(&d), two, "{d}");
                    }
                }
            }
        }
    }

    #[test]
    fn expanded_grows_all_sides() {
        let r = Rect::new(0, 0, 10, 10).expanded(5);
        assert_eq!(r, Rect::new(-5, -5, 15, 15));
    }
}
