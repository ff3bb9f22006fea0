//! Empty offline stand-in for `crossbeam`: declared by workspace crates, used by none.
