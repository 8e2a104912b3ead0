package pick

func pick() string { return "amd64" }
