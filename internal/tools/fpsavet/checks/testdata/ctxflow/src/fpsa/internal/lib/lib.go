// Package lib is golden input: library code that must keep the context
// chain unbroken.
package lib

import "context"

func use(ctx context.Context) {}

func severed() {
	use(context.Background()) // want `context.Background\(\) in library code severs the caller's cancellation`
}

func todoSevered() {
	use(context.TODO()) // want `context.TODO\(\) in library code severs the caller's cancellation`
}

func dropsCtx(ctx context.Context) {
	use(context.Background()) // want `function already receives a context.Context`
}

func inClosure(ctx context.Context) func() {
	return func() {
		use(context.TODO()) // want `function already receives a context.Context`
	}
}

func closureOwnCtx() func(context.Context) {
	return func(ctx context.Context) {
		use(context.Background()) // want `function already receives a context.Context`
	}
}

func nilGuard(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	use(ctx)
}

func passesCtx(ctx context.Context) {
	use(ctx)
}
