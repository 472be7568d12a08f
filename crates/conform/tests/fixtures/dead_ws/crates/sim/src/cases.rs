/// Flagged: only this crate's own `#[test]` calls it.
pub fn only_own_test() -> u64 {
    1
}

/// Called only from the app crate's bin.
pub fn from_bin() -> u64 {
    2
}

/// Called only from the app crate's `#[cfg(test)]` code.
pub fn from_other_crate_test() -> u64 {
    3
}

/// Called only from this crate's integration test.
pub fn from_integration_test() -> u64 {
    4
}

/// Runs `f`; the bin passes `passed_as_value` to it by name.
pub fn run(f: fn() -> u64) -> u64 {
    debug_assert!(checked());
    f()
}

/// Named only as a value.
pub fn passed_as_value() -> u64 {
    5
}

/// Named only as a macro argument.
pub fn passed_to_macro() -> u64 {
    6
}

/// Called only inside `debug_assert!`, which release builds drop.
pub fn checked() -> bool {
    true
}

/// Called only through the meta-crate's re-export.
pub fn via_reexport() -> u64 {
    7
}

/// Called only under a `use … as` rename.
pub fn renamed() -> u64 {
    8
}

/// Called only in a `const` initializer.
pub const fn doubled(n: u64) -> u64 {
    n * 2
}

/// The initializer that calls `doubled`.
pub const LIMIT: u64 = doubled(4);

/// Built by its trait impl and, through a type alias, by the bin.
#[derive(Debug)]
pub struct Widget(u64);

/// The alias the bin calls `Widget::build` through.
pub type Gadget = Widget;

impl Widget {
    /// Called only as `Gadget::build`.
    pub fn build() -> Widget {
        Widget(0)
    }
}

/// Called only from a trait-impl method.
fn widget_size() -> u64 {
    9
}

impl Default for Widget {
    /// Exempt, and a root: `Default::default` is called without its name.
    fn default() -> Self {
        Widget(widget_size())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn own_test() {
        assert_eq!(super::only_own_test(), 1);
    }
}
