//! Fixture library that calls lib1.

/// Calls lib1; its docs name [`lib1::only_tests`], which is no call.
pub fn caller() {
    lib1::called_by_lib2();
    lib1::wrapper();
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_only_tests() {
        lib1::only_tests();
    }
}
