package testonly

// sum references UsedInOtherFile and Live from a second non-test file.
func sum() int { return UsedInOtherFile() + Live() }
