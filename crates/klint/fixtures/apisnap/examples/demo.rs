fn main() {
    lib1::by_example();
    lib2::caller();
}
