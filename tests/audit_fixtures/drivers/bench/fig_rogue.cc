// Driver-map fixture: a driver with no docs/reproducing.md row.
int main() { return 0; }
