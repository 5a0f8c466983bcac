let used x = x + 1
let test_only x = x * 2

(* A use inside the value's own module does not count. *)
let _twice x = test_only (test_only x)
