let never ?(scale = 1) x = x * scale
let test_passed ?(scale = 1) x = x * scale
let first_class ?(scale = 1) x = x * scale
let forwarded ?(scale = 1) x = x * scale
let kept ?(scale = 1) x = x * scale
let passed_allowed ?(scale = 1) x = x * scale

type opts = { overridden : int; defaulted : int }

let default_opts = { overridden = 1; defaulted = 2 }
