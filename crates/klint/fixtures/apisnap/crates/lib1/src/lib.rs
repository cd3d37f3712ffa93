//! Fixture library whose items each meet one kind of reference.

/// Called by lib2's library code.
pub fn called_by_lib2() {}

/// Named only by a `tests/` file, a `#[cfg(test)]` module and doc
/// comments.
pub fn only_tests() {}

/// Called by an example.
pub fn by_example() {}

/// Called by a `src/bin` file.
pub fn by_bin() {}

/// Named elsewhere only by a `pub use`.
pub fn reexported() {}

/// Called only from this file.
pub fn own_file_only() {}

/// Calls [`own_file_only`].
pub fn wrapper() {
    own_file_only();
}
