fn main() {
    lib1::by_bin();
}
