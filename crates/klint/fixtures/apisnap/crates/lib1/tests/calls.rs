#[test]
fn calls_only_tests() {
    lib1::only_tests();
}
