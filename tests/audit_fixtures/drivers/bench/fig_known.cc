// Driver-map fixture: documented in docs/reproducing.md.
int main() { return 0; }
