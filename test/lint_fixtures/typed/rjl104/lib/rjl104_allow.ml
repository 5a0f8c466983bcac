let test_only x = x * 2
let used x = x + 1
