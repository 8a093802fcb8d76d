//! Deterministic frame coloring.

/// Color schemes for flame graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Palette {
    /// The classic warm (red–orange–yellow) flamegraph.pl look.
    #[default]
    Warm,
    /// Blue–green tones (the "io" palette).
    Cool,
    /// Grayscale (for print).
    Gray,
}

/// FNV-1a hash for stable per-name variation.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether `name` is the synthetic root of a process tower, `pid <n>`
/// (see [`crate::live::merge_folded_by_process`]).
fn is_pid_tower(name: &str) -> bool {
    name.strip_prefix("pid ")
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

impl Palette {
    /// The fill color for a frame with the given name, as `rgb(r,g,b)`.
    /// The same name always maps to the same color (so the same function is
    /// recognizable across graphs), with hue jitter within the scheme. A
    /// process tower's root names a host pid, which differs from run to
    /// run, so every tower takes one fill: that of the name `pid`.
    pub fn color_for(self, name: &str) -> String {
        let h = fnv1a(if is_pid_tower(name) { "pid" } else { name });
        let v1 = (h & 0xff) as u32; // 0..255
        let v2 = ((h >> 8) & 0xff) as u32; // 0..255
        let (r, g, b) = match self {
            Palette::Warm => (205 + v1 * 50 / 255, 50 + v2 * 130 / 255, v1 * 30 / 255),
            Palette::Cool => (v1 * 60 / 255, 120 + v2 * 100 / 255, 160 + v1 * 80 / 255),
            Palette::Gray => {
                let g = 120 + v1 * 100 / 255;
                (g, g, g)
            }
        };
        format!("rgb({r},{g},{b})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colors_are_deterministic_per_name() {
        let p = Palette::Warm;
        assert_eq!(p.color_for("main"), p.color_for("main"));
        assert_ne!(p.color_for("main"), p.color_for("other"));
    }

    #[test]
    fn every_process_tower_takes_one_fill() {
        for p in [Palette::Warm, Palette::Cool, Palette::Gray] {
            assert_eq!(p.color_for("pid 11"), p.color_for("pid 4242"));
            assert_eq!(p.color_for("pid 11"), p.color_for("pid"));
        }
        // Only a pid names a tower.
        let p = Palette::Warm;
        assert_ne!(p.color_for("pid x1"), p.color_for("pid"));
        assert_ne!(p.color_for("pid "), p.color_for("pid"));
    }

    #[test]
    fn warm_palette_is_red_dominated() {
        for name in ["a", "b", "getpid", "rocksdb::Get"] {
            let c = Palette::Warm.color_for(name);
            let nums: Vec<u32> = c
                .trim_start_matches("rgb(")
                .trim_end_matches(')')
                .split(',')
                .map(|x| x.parse().unwrap())
                .collect();
            assert!(nums[0] >= 205, "warm colors lead with red: {c}");
            assert!(nums[0] <= 255 && nums[1] <= 255 && nums[2] <= 255);
        }
    }

    #[test]
    fn gray_palette_is_gray() {
        let c = Palette::Gray.color_for("x");
        let nums: Vec<u32> = c
            .trim_start_matches("rgb(")
            .trim_end_matches(')')
            .split(',')
            .map(|x| x.parse().unwrap())
            .collect();
        assert_eq!(nums[0], nums[1]);
        assert_eq!(nums[1], nums[2]);
    }
}
