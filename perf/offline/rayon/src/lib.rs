//! Empty offline stand-in for `rayon`: declared by workspace crates, used by none.
