// Driver-map fixture: bench/ subdirectories hold helpers, not drivers.
int helper() { return 1; }
